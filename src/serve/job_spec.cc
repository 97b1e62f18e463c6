/**
 * @file
 * JobSpec validation and SimConfig mapping.
 */

#include "serve/job_spec.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <thread>
#include <vector>

#include "util/json.hh"
#include "util/options.hh"
#include "workload/kernels.hh"

namespace slacksim {
namespace serve {

namespace {

/** Every key slacksim.job.v1 defines, for unknown-key diagnostics. */
const std::vector<std::string> &
knownKeys()
{
    static const std::vector<std::string> keys = {
        "version",       "name",
        "kernel",        "cores",
        "scheme",        "slack",
        "quantum",       "seed",
        "max_uops",      "warmup_uops",
        "checkpoint",    "checkpoint_interval",
        "parallel_host", "host_threads",
        "clusters",      "priority",
        "timeout_ms",
        "fault_spec",    "fault_seed",
        "mem_mb",        "trace",
        "profile",       "isolation",
        "max_attempts",  "rlimit_mem_mb",
        "rlimit_cpu_s",  "trace_id",
    };
    return keys;
}

const std::vector<std::string> &
isolationNames()
{
    static const std::vector<std::string> names = {"inline",
                                                   "process"};
    return names;
}

const std::vector<std::string> &
schemeNames()
{
    static const std::vector<std::string> names = {
        "cc",       "quantum", "bounded",
        "unbounded", "adaptive", "laxp2p",
    };
    return names;
}

const std::vector<std::string> &
checkpointNames()
{
    static const std::vector<std::string> names = {"off", "measure",
                                                   "speculative"};
    return names;
}

/** Fault kinds the fault/fault_plan.hh grammar accepts — mirrored
 *  here because FaultPlan::parseSpec is fatal() on bad grammar, which
 *  a daemon cannot afford on untrusted input. */
const std::vector<std::string> &
faultKinds()
{
    static const std::vector<std::string> kinds = {
        "snapshot-corrupt", "snapshot-truncate", "spurious-rollback",
        "child-kill",       "child-exit",        "worker-stall",
        "backpressure",     "io-fail",           "job-crash",
        "job-hang",
    };
    return kinds;
}

/** Kinds that destroy the process running the job. Deliberately NOT
 *  daemon-kill-window: that one only makes sense on the daemon's own
 *  command line (recovery drills), never from a client. */
bool
isProcessWreckingKind(const std::string &kind)
{
    return kind == "job-crash" || kind == "job-hang";
}

bool
isMember(const std::string &word,
         const std::vector<std::string> &set)
{
    return std::find(set.begin(), set.end(), word) != set.end();
}

/** "x, y or z" for error messages. */
std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            out += i + 1 == names.size() ? " or " : ", ";
        out += names[i];
    }
    return out;
}

/** Set @p *error to "unknown <what> '<word>' (did you mean ...)". */
bool
rejectUnknown(const char *what, const std::string &word,
              const std::vector<std::string> &candidates,
              std::string *error)
{
    std::string msg = std::string("unknown ") + what + " '" + word + "'";
    const std::string hint = didYouMean(word, candidates);
    if (!hint.empty())
        msg += " (did you mean '" + hint + "'?)";
    else
        msg += " (expected " + joinNames(candidates) + ")";
    *error = msg;
    return false;
}

bool
getUint(const json::Value &doc, const char *key, std::uint64_t *out,
        std::string *error)
{
    const json::Value &v = doc.at(key);
    if (!v.isNumber() || !json::isUint64(v.number)) {
        *error = std::string("key '") + key +
                 "' expects a non-negative integer below 2^64";
        return false;
    }
    *out = static_cast<std::uint64_t>(v.number);
    return true;
}

bool
getString(const json::Value &doc, const char *key, std::string *out,
          std::string *error)
{
    const json::Value &v = doc.at(key);
    if (!v.isString()) {
        *error = std::string("key '") + key + "' expects a string";
        return false;
    }
    *out = v.str;
    return true;
}

/** Validate one `kind@site:trigger[:args]` fault spec entry without
 *  the fatal() the real parser uses. Grammar checks only — the real
 *  parser still owns numeric semantics at run start, by which time
 *  the entry is known to be well-formed enough not to kill us. */
bool
checkFaultEntry(const std::string &entry, std::string *error)
{
    const auto at = entry.find('@');
    if (at == std::string::npos || at == 0) {
        *error = "fault spec '" + entry +
                 "': expected <kind>@<site>:<trigger>";
        return false;
    }
    const std::string kind = entry.substr(0, at);
    if (!isMember(kind, faultKinds()))
        return rejectUnknown("fault kind", kind, faultKinds(), error);
    const auto colon = entry.find(':', at);
    if (colon == std::string::npos || colon + 1 >= entry.size()) {
        *error = "fault spec '" + entry +
                 "': missing ':<trigger>' after the site";
        return false;
    }
    // Trigger and optional args must be digits/colons only.
    for (std::size_t i = colon + 1; i < entry.size(); ++i) {
        const char c = entry[i];
        if (c != ':' && (c < '0' || c > '9')) {
            *error = "fault spec '" + entry +
                     "': trigger/args must be decimal integers";
            return false;
        }
    }
    return true;
}

bool
checkFaultSpecList(const std::string &text, std::string *error)
{
    std::string entry;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == ',' || text[i] == ';') {
            if (!entry.empty() && !checkFaultEntry(entry, error))
                return false;
            entry.clear();
        } else if (text[i] != ' ') {
            entry += text[i];
        }
    }
    return true;
}

} // namespace

bool
JobSpec::parse(const json::Value &doc, JobSpec *out,
               std::string *error)
{
    if (!doc.isObject()) {
        *error = "job spec must be a JSON object";
        return false;
    }
    for (const auto &[key, value] : doc.object) {
        (void)value;
        if (!isMember(key, knownKeys()))
            return rejectUnknown("job-spec key", key, knownKeys(),
                                 error);
    }
    JobSpec spec;
    if (doc.has("version")) {
        std::string version;
        if (!getString(doc, "version", &version, error))
            return false;
        if (version != jobSpecVersion) {
            *error = "unsupported spec version '" + version +
                     "' (this daemon speaks " + jobSpecVersion + ")";
            return false;
        }
    }
    if (doc.has("name") &&
        !getString(doc, "name", &spec.name, error)) {
        return false;
    }
    if (doc.has("trace_id")) {
        if (!getString(doc, "trace_id", &spec.traceId, error))
            return false;
        if (spec.traceId.size() > 64) {
            *error = "trace_id must be at most 64 characters";
            return false;
        }
        for (const char c : spec.traceId) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '-' && c != '_') {
                *error = "trace_id may contain only [A-Za-z0-9_-]";
                return false;
            }
        }
    }
    if (!doc.has("kernel")) {
        *error = "job spec requires a 'kernel' key";
        return false;
    }
    if (!getString(doc, "kernel", &spec.kernel, error))
        return false;
    if (!isMember(spec.kernel, workloadNames()))
        return rejectUnknown("kernel", spec.kernel, workloadNames(),
                             error);
    if (doc.has("scheme")) {
        if (!getString(doc, "scheme", &spec.scheme, error))
            return false;
        if (!isMember(spec.scheme, schemeNames()))
            return rejectUnknown("scheme", spec.scheme, schemeNames(),
                                 error);
    }
    if (doc.has("checkpoint")) {
        if (!getString(doc, "checkpoint", &spec.checkpoint, error))
            return false;
        if (!isMember(spec.checkpoint, checkpointNames()))
            return rejectUnknown("checkpoint mode", spec.checkpoint,
                                 checkpointNames(), error);
    }
    std::uint64_t u = 0;
    if (doc.has("cores")) {
        if (!getUint(doc, "cores", &u, error))
            return false;
        if (u < 1 || u > 64) {
            *error = "cores must be in [1, 64]";
            return false;
        }
        spec.cores = static_cast<std::uint32_t>(u);
    }
    if (doc.has("slack")) {
        if (!getUint(doc, "slack", &spec.slack, error))
            return false;
        if (spec.slack < 1) {
            *error = "slack must be >= 1";
            return false;
        }
    }
    if (doc.has("quantum")) {
        if (!getUint(doc, "quantum", &spec.quantum, error))
            return false;
        if (spec.quantum < 1) {
            *error = "quantum must be >= 1";
            return false;
        }
    }
    if (doc.has("seed") && !getUint(doc, "seed", &spec.seed, error))
        return false;
    if (doc.has("max_uops") &&
        !getUint(doc, "max_uops", &spec.maxUops, error)) {
        return false;
    }
    if (doc.has("warmup_uops") &&
        !getUint(doc, "warmup_uops", &spec.warmupUops, error)) {
        return false;
    }
    if (doc.has("checkpoint_interval")) {
        if (!getUint(doc, "checkpoint_interval",
                     &spec.checkpointInterval, error)) {
            return false;
        }
        if (spec.checkpointInterval < 100) {
            *error = "checkpoint_interval must be >= 100 cycles";
            return false;
        }
    }
    if (doc.has("parallel_host")) {
        const json::Value &v = doc.at("parallel_host");
        if (!v.isBool()) {
            *error = "key 'parallel_host' expects a boolean";
            return false;
        }
        spec.parallelHost = v.boolean;
    }
    if (doc.has("host_threads")) {
        if (!getUint(doc, "host_threads", &u, error))
            return false;
        if (u > 0 && !spec.parallelHost) {
            *error = "host_threads requires parallel_host";
            return false;
        }
        if (u > std::uint64_t{spec.cores} + 1) {
            *error = "host_threads must be in [0, cores + 1]";
            return false;
        }
        spec.hostThreadsOverride = static_cast<std::uint32_t>(u);
    }
    if (doc.has("clusters")) {
        // Retired with the relay threads. Specs journaled before then
        // carry "clusters": 0, so recovery must still read that.
        if (!getUint(doc, "clusters", &u, error))
            return false;
        if (u != 0) {
            *error = "clusters: relay threads were removed; omit the key";
            return false;
        }
    }
    if (doc.has("priority")) {
        if (!getUint(doc, "priority", &u, error))
            return false;
        if (u > 7) {
            *error = "priority must be in [0, 7]";
            return false;
        }
        spec.priority = static_cast<std::uint32_t>(u);
    }
    if (doc.has("timeout_ms") &&
        !getUint(doc, "timeout_ms", &spec.timeoutMs, error)) {
        return false;
    }
    if (doc.has("fault_spec")) {
        if (!getString(doc, "fault_spec", &spec.faultSpec, error))
            return false;
        if (!checkFaultSpecList(spec.faultSpec, error))
            return false;
    }
    if (doc.has("fault_seed") &&
        !getUint(doc, "fault_seed", &spec.faultSeed, error)) {
        return false;
    }
    if (doc.has("mem_mb") &&
        !getUint(doc, "mem_mb", &spec.memMb, error)) {
        return false;
    }
    if (doc.has("trace")) {
        const json::Value &v = doc.at("trace");
        if (!v.isBool()) {
            *error = "key 'trace' expects a boolean";
            return false;
        }
        spec.trace = v.boolean;
    }
    if (doc.has("profile")) {
        const json::Value &v = doc.at("profile");
        if (!v.isBool()) {
            *error = "key 'profile' expects a boolean";
            return false;
        }
        spec.profile = v.boolean;
    }
    if (doc.has("isolation")) {
        if (!getString(doc, "isolation", &spec.isolation, error))
            return false;
        if (!spec.isolation.empty() &&
            !isMember(spec.isolation, isolationNames())) {
            return rejectUnknown("isolation mode", spec.isolation,
                                 isolationNames(), error);
        }
    }
    if (doc.has("max_attempts")) {
        if (!getUint(doc, "max_attempts", &u, error))
            return false;
        if (u < 1 || u > 10) {
            *error = "max_attempts must be in [1, 10]";
            return false;
        }
        spec.maxAttempts = static_cast<std::uint32_t>(u);
    }
    if (doc.has("rlimit_mem_mb") &&
        !getUint(doc, "rlimit_mem_mb", &spec.rlimitMemMb, error)) {
        return false;
    }
    if (doc.has("rlimit_cpu_s") &&
        !getUint(doc, "rlimit_cpu_s", &spec.rlimitCpuS, error)) {
        return false;
    }
    if (spec.isolation == "inline" && spec.needsProcessIsolation()) {
        *error = "fault kinds job-crash/job-hang require "
                 "isolation \"process\" (they destroy the executing "
                 "process)";
        return false;
    }
    *out = std::move(spec);
    return true;
}

bool
JobSpec::needsProcessIsolation() const
{
    std::string entry;
    for (std::size_t i = 0; i <= faultSpec.size(); ++i) {
        if (i == faultSpec.size() || faultSpec[i] == ',' ||
            faultSpec[i] == ';') {
            const auto at = entry.find('@');
            if (at != std::string::npos &&
                isProcessWreckingKind(entry.substr(0, at))) {
                return true;
            }
            entry.clear();
        } else if (faultSpec[i] != ' ') {
            entry += faultSpec[i];
        }
    }
    return false;
}

SimConfig
JobSpec::toConfig() const
{
    SimConfig config;
    config.target.numCores = cores;
    config.workload.kernel = kernel;
    config.workload.numThreads = cores;
    config.workload.seed = seed;
    config.engine.scheme = parseScheme(scheme);
    config.engine.slackBound = slack;
    config.engine.quantum = quantum;
    config.engine.p2pSeed = seed;
    config.engine.maxCommittedUops = maxUops;
    config.engine.warmupUops = warmupUops;
    config.engine.parallelHost = parallelHost;
    config.engine.hostThreads = hostThreadsOverride;
    if (checkpoint == "measure")
        config.engine.checkpoint.mode = CheckpointMode::Measure;
    else if (checkpoint == "speculative")
        config.engine.checkpoint.mode = CheckpointMode::Speculative;
    config.engine.checkpoint.interval = checkpointInterval;
    if (!faultSpec.empty())
        config.engine.faultSpecs.push_back(faultSpec);
    config.engine.faultSeed = faultSeed;
    return config;
}

std::uint32_t
JobSpec::hostThreads() const
{
    return 1 + engineWorkers(toConfig(),
                             std::thread::hardware_concurrency());
}

std::string
JobSpec::toJson() const
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.field("version", jobSpecVersion);
    if (!name.empty())
        w.field("name", name);
    w.field("kernel", kernel);
    w.field("cores", static_cast<std::uint64_t>(cores));
    w.field("scheme", scheme);
    w.field("slack", slack);
    w.field("quantum", quantum);
    w.field("seed", seed);
    w.field("max_uops", maxUops);
    w.field("warmup_uops", warmupUops);
    w.field("checkpoint", checkpoint);
    w.field("checkpoint_interval", checkpointInterval);
    w.field("parallel_host", parallelHost);
    if (hostThreadsOverride) {
        w.field("host_threads",
                static_cast<std::uint64_t>(hostThreadsOverride));
    }
    w.field("priority", static_cast<std::uint64_t>(priority));
    w.field("timeout_ms", timeoutMs);
    if (!faultSpec.empty())
        w.field("fault_spec", faultSpec);
    w.field("fault_seed", faultSeed);
    if (memMb)
        w.field("mem_mb", memMb);
    if (trace)
        w.field("trace", trace);
    if (profile)
        w.field("profile", profile);
    if (!isolation.empty())
        w.field("isolation", isolation);
    w.field("max_attempts", static_cast<std::uint64_t>(maxAttempts));
    if (rlimitMemMb)
        w.field("rlimit_mem_mb", rlimitMemMb);
    if (rlimitCpuS)
        w.field("rlimit_cpu_s", rlimitCpuS);
    if (!traceId.empty())
        w.field("trace_id", traceId);
    w.endObject();
    return os.str();
}

} // namespace serve
} // namespace slacksim
