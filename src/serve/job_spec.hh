/**
 * @file
 * The versioned job specification (`slacksim.job.v1`) and its
 * validator.
 *
 * A job spec is the JSON object a client submits over the socket:
 * which workload to run, on what simulated machine, under which slack
 * scheme, with what seed and fault/recovery policy, plus the serve-
 * level knobs (priority, timeout, memory estimate). One flat object,
 * all keys optional except "kernel":
 *
 *   {
 *     "version":       "slacksim.job.v1"   (optional, checked if set)
 *     "name":          string   job label (default "job-<id>")
 *     "kernel":        string   workload kernel (workloadNames())
 *     "cores":         uint     target cores, 1..64 (default 8)
 *     "scheme":        string   cc|quantum|bounded|unbounded|
 *                               adaptive|laxp2p (default "bounded")
 *     "slack":         uint     slack bound, >=1 (default 10)
 *     "quantum":       uint     quantum period, >=1 (default 8)
 *     "seed":          uint     workload + p2p seed (default 42)
 *     "max_uops":      uint     committed-uop budget (0 = to end)
 *     "warmup_uops":   uint     warmup discard budget (default 0)
 *     "checkpoint":    string   off|measure|speculative (default off)
 *     "checkpoint_interval": uint  cycles, >=100 (default 50000)
 *     "parallel_host": bool     threaded engine (default true)
 *     "host_threads":  uint     most host threads incl. the manager
 *                               (0 = auto-size from the machine;
 *                               1 = inline mode; parallel only;
 *                               hostThreads() below is what runs)
 *     "clusters":      uint     retired: only 0 is accepted, so
 *                               specs journaled while relay threads
 *                               existed stay readable
 *     "priority":      uint     0..7, higher runs first (default 3)
 *     "timeout_ms":    uint     per-job host deadline (0 = none)
 *     "fault_spec":    string   fault/fault_plan.hh grammar
 *     "fault_seed":    uint     fault randomness seed (default 1)
 *     "mem_mb":        uint     admission memory estimate override
 *     "trace":         bool     write a per-job Chrome trace named
 *                               job-<id>.trace.json (default false)
 *     "profile":       bool     host-time profiling; adds the run-
 *                               report profile section and writes
 *                               job-<id>.profile.folded (default off)
 *     "isolation":     string   ""|"inline"|"process": where the job
 *                               executes ("" = the daemon's default;
 *                               "process" = forked supervised child)
 *     "max_attempts":  uint     1..10: total tries across daemon
 *                               restarts before a running-at-crash
 *                               job is declared failed (default 3)
 *     "rlimit_mem_mb": uint     child RLIMIT_AS, MiB (0 = none;
 *                               process isolation only)
 *     "rlimit_cpu_s":  uint     child RLIMIT_CPU, seconds (0 = none;
 *                               process isolation only)
 *     "trace_id":      string   distributed-trace correlation id, up
 *                               to 64 hex/alnum chars; "" lets the
 *                               server mint one at submit
 *   }
 *
 * Validation philosophy: the engine's own SimConfig::validate() and
 * makeWorkload() are fatal() on user error — correct for a CLI, an
 * instant daemon-killer for a server. parse() therefore pre-checks
 * everything those layers would die on and returns a protocol-level
 * error string instead, with did-you-mean diagnostics for unknown
 * keys, kernels and schemes (same editDistance helper the CLI flag
 * parser uses).
 */

#ifndef SLACKSIM_SERVE_JOB_SPEC_HH
#define SLACKSIM_SERVE_JOB_SPEC_HH

#include <cstdint>
#include <string>

#include "core/config.hh"
#include "util/json_parse.hh"

namespace slacksim {
namespace serve {

/** The spec version this daemon accepts. */
inline constexpr const char *jobSpecVersion = "slacksim.job.v1";

/** One validated job submission. */
struct JobSpec
{
    std::string name;
    std::string kernel = "fft";
    std::uint32_t cores = 8;
    std::string scheme = "bounded";
    std::uint64_t slack = 10;
    std::uint64_t quantum = 8;
    std::uint64_t seed = 42;
    std::uint64_t maxUops = 0;
    std::uint64_t warmupUops = 0;
    std::string checkpoint = "off";
    std::uint64_t checkpointInterval = 50000;
    bool parallelHost = true;
    /** EngineConfig::hostThreads: total host threads including the
     *  manager; 0 = auto-size from the machine. */
    std::uint32_t hostThreadsOverride = 0;
    std::uint32_t priority = 3;
    std::uint64_t timeoutMs = 0;
    std::string faultSpec;
    std::uint64_t faultSeed = 1;
    std::uint64_t memMb = 0; //!< 0 = use the built-in estimate
    bool trace = false;      //!< per-job Chrome trace sink
    bool profile = false;    //!< host-time profile + folded stacks
    /** "" (inherit the daemon default), "inline" or "process". */
    std::string isolation;
    std::uint32_t maxAttempts = 3; //!< tries across daemon restarts
    std::uint64_t rlimitMemMb = 0; //!< child RLIMIT_AS MiB (0: none)
    std::uint64_t rlimitCpuS = 0;  //!< child RLIMIT_CPU s (0: none)
    /** Client-supplied distributed-trace id; the server mints one at
     *  submit when empty, and writes it back so the journaled spec
     *  round-trips the identity through crash recovery. */
    std::string traceId;

    /**
     * Validate and decode @p doc into @p out. @return true on
     * success; on failure @p error receives one human-readable line
     * (unknown keys/kernels/schemes come with did-you-mean hints).
     */
    static bool parse(const json::Value &doc, JobSpec *out,
                      std::string *error);

    /** Build the SimConfig this spec describes. The spec is already
     *  validated, so the config passes SimConfig::validate(). */
    SimConfig toConfig() const;

    /**
     * Host threads the job occupies while running: the manager plus
     * the workers engineWorkers() (core/config.hh) resolves for
     * toConfig() on this host, which is what the run launches and
     * reports as host_threads_used. A cycle-by-cycle or serial run
     * takes the manager's thread alone. This is the quantity
     * admission control reserves against the global thread budget.
     */
    std::uint32_t hostThreads() const;

    /** Admission memory estimate (MiB): the override when given,
     *  else a coarse per-core model of the simulated state. */
    std::uint64_t
    memEstimateMb() const
    {
        return memMb ? memMb : 8 + std::uint64_t{2} * cores;
    }

    /**
     * @return true when the fault spec contains a kind (job-crash,
     * job-hang) that deliberately wrecks the executing process —
     * submittable only under process isolation, where the blast
     * radius is one supervised child instead of the whole daemon.
     */
    bool needsProcessIsolation() const;

    /** Re-encode as a compact slacksim.job.v1 JSON object. */
    std::string toJson() const;
};

} // namespace serve
} // namespace slacksim

#endif // SLACKSIM_SERVE_JOB_SPEC_HH
