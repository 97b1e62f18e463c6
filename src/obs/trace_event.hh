/**
 * @file
 * Trace record layout shared by the recorder's per-thread rings and
 * the exporters. One record is one timeline event: the begin or end
 * of a span, an instant marker, or a counter sample. Records carry
 * both clocks of the "CMP on CMP" pair — host wall time (what the
 * engine threads really did) and simulated target cycles (where the
 * simulation was) — so the same buffer answers "why is this slow?"
 * and "when did the controller converge?".
 */

#ifndef SLACKSIM_OBS_TRACE_EVENT_HH
#define SLACKSIM_OBS_TRACE_EVENT_HH

#include <cstdint>

#include "util/types.hh"

namespace slacksim::obs {

/** What kind of timeline event a record is. */
enum class TraceType : std::uint8_t {
    Begin,   //!< span open (pairs with the next End of the same name)
    End,     //!< span close
    Instant, //!< point event (violation, rollback, adaptive decision)
    Counter, //!< sampled value (slack bound, queue depth)
};

/** Event category; becomes the Chrome-trace "cat" field. */
enum class TraceCategory : std::uint8_t {
    Engine,     //!< whole-run / manager-loop level
    Core,       //!< per-core run / park activity
    Manager,    //!< GQ pump + event service
    Bus,        //!< bus grants and bus violations
    Map,        //!< global-cache-map violations
    Adaptive,   //!< slack-throttling controller decisions
    Checkpoint, //!< snapshot / rollback / replay machinery
};

/** @return printable category name (Chrome-trace "cat"). */
const char *traceCategoryName(TraceCategory cat);

/**
 * One fixed-size trace record. @c name must point at a string with
 * static storage duration (a literal): records are copied across
 * threads without ownership.
 */
struct TraceRecord
{
    /** Host ns since the run's clock anchor; raw counter ticks while
     *  the record sits in a ring (Recorder::end() converts). */
    std::uint64_t wallNs = 0;
    Tick cycle = 0;           //!< simulated target cycle
    const char *name = "";    //!< static event name
    std::int64_t arg = 0;     //!< event argument (value, count, ...)
    std::int64_t arg2 = 0;    //!< secondary argument (old value, ...)
    TraceType type = TraceType::Instant;
    TraceCategory category = TraceCategory::Engine;
};

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_TRACE_EVENT_HH
