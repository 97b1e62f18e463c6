/**
 * @file
 * Distributed-trace span identity and clock-domain anchoring.
 *
 * A fleet run crosses four execution domains — client, daemon
 * scheduler, forked supervised child, engine worker threads — each
 * with its own clock. The span model here is deliberately tiny: a
 * `trace_id` names one job's end-to-end causal chain, `span_id` /
 * `parent_span_id` name the nodes, and a ClockAnchor captured at each
 * domain handoff lets the offline merger (serve/fleet_trace.hh) place
 * every domain's events on one wall-epoch timeline.
 *
 * Nothing here touches a hot path: ids are minted at submit / session
 * begin, anchors are captured once per process, and all of it is
 * plain value types with no globals beyond a mint counter.
 */

#ifndef SLACKSIM_OBS_SPAN_HH
#define SLACKSIM_OBS_SPAN_HH

#include <cstdint>
#include <string>

namespace slacksim::obs {

/**
 * One process's reading of the three clock domains at a single
 * instant, plus the pid that took it. The merger aligns a child's
 * trace (steady / TSC relative timestamps) to the fleet timeline by
 * anchoring through wallUs.
 */
struct ClockAnchor
{
    std::uint64_t wallUs = 0;   //!< system_clock, µs since epoch
    std::uint64_t steadyNs = 0; //!< steady_clock, ns (process-local)
    std::uint64_t tsc = 0;      //!< raw timestamp counter (tscNow)
    std::uint32_t pid = 0;      //!< process that captured the anchor
};

/** Capture all three clocks as close together as we can. */
ClockAnchor captureClockAnchor();

/**
 * Mint a process-unique 16-hex-digit trace id. Not cryptographic:
 * pid + steady time + a counter through an avalanche mix, enough to
 * never collide within one fleet's lifetime.
 */
std::string mintTraceId();

/** Mint a nonzero span id (same generator as mintTraceId). */
std::uint64_t mintSpanId();

/** Render a span id the way every schema carries it: 16 hex digits. */
std::string spanIdHex(std::uint64_t span_id);

/**
 * The engine-side span of one run: identity received from the
 * submitter (or self-minted for standalone runs) plus the anchor
 * captured when the trace session began. Recorded in ForensicsData
 * and exported through run_report v5 and the Chrome-trace metadata.
 */
struct TraceSpanInfo
{
    std::string traceId;             //!< empty = tracing not wired
    std::uint64_t spanId = 0;        //!< this process's engine span
    std::uint64_t parentSpanId = 0;  //!< submitter's root span, 0 = none
    ClockAnchor anchor;              //!< taken at session begin
    bool active = false;             //!< true once begin() stamped it
};

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_SPAN_HH
