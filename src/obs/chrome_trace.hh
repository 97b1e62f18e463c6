/**
 * @file
 * Chrome-trace / Perfetto JSON exporter for drained trace sessions.
 * The output loads directly in chrome://tracing and ui.perfetto.dev:
 * one track per registered engine thread (named after its role), span
 * begin/end pairs as "B"/"E" events, instants as "i", counters as
 * "C". Timestamps are host wall time (microseconds since the run's
 * clock anchor, obs/span.hh); the simulated target cycle of every
 * record rides along in args.
 */

#ifndef SLACKSIM_OBS_CHROME_TRACE_HH
#define SLACKSIM_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.hh"

namespace slacksim::obs {

/**
 * Per-process identity stamped into an exported trace: the real pid
 * (so fleet-merged traces from many supervised children don't collide
 * on engine-local thread ids), a process_name metadata track label,
 * the distributed-trace identity, and the clock anchor the fleet
 * merger uses to shift this process's relative timestamps onto the
 * wall-epoch timeline. Default-constructed meta reproduces the legacy
 * single-process output (pid 0, no metadata object).
 */
struct ChromeTraceMeta
{
    std::uint32_t pid = 0;       //!< emitting process's real pid
    std::string processName;     //!< Perfetto process track label
    std::string traceId;         //!< distributed trace id ("" = none)
    std::uint64_t spanId = 0;        //!< engine span id
    std::uint64_t parentSpanId = 0;  //!< submitter root span id
    std::uint64_t wallAnchorUs = 0;  //!< wall epoch µs at trace t0
    std::uint64_t steadyAnchorNs = 0; //!< steady clock at trace t0
    std::uint64_t tscAnchor = 0;      //!< raw TSC at trace t0
};

/** Write @p traces as one Chrome-trace JSON object to @p os. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<ThreadTrace> &traces,
                      const ChromeTraceMeta &meta = {});

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_CHROME_TRACE_HH
