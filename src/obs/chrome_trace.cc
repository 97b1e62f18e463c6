/**
 * @file
 * Chrome-trace exporter implementation.
 */

#include "obs/chrome_trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "util/json.hh"

namespace slacksim::obs {

namespace {

const char *
phaseOf(TraceType type)
{
    switch (type) {
      case TraceType::Begin:
        return "B";
      case TraceType::End:
        return "E";
      case TraceType::Instant:
        return "i";
      case TraceType::Counter:
        return "C";
    }
    return "i";
}

/** Format wall ns as microseconds with sub-us precision. */
std::string
tsMicros(std::uint64_t wall_ns)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64,
                  wall_ns / 1000, wall_ns % 1000);
    return buf;
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<ThreadTrace> &traces,
                 const ChromeTraceMeta &meta)
{
    const std::uint32_t pid = meta.pid;
    os << "{\"traceEvents\":[";
    bool first = true;
    if (!meta.processName.empty()) {
        os << "\n{\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"name\":\"process_name\",\"args\":{"
              "\"name\":\""
           << json::escape(meta.processName) << "\"}}";
        first = false;
    }
    for (const auto &t : traces) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << t.tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << json::escape(t.role) << "\"}}";
        os << ",\n{\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << t.tid
           << ",\"name\":\"thread_sort_index\",\"args\":{"
              "\"sort_index\":"
           << t.tid << "}}";

        // Records are per-thread FIFO, but a committed scope pushes
        // its B when it closes, stamped older than records pushed
        // inside it; a stable sort restores timeline order without
        // disturbing same-timestamp emit order.
        std::vector<TraceRecord> recs = t.records;
        std::stable_sort(recs.begin(), recs.end(),
                         [](const TraceRecord &a, const TraceRecord &b) {
                             return a.wallNs < b.wallNs;
                         });
        for (const auto &rec : recs) {
            os << ",\n{\"ph\":\"" << phaseOf(rec.type)
               << "\",\"pid\":" << pid << ",\"tid\":" << t.tid
               << ",\"ts\":" << tsMicros(rec.wallNs) << ",\"name\":\""
               << json::escape(rec.name) << "\",\"cat\":\""
               << traceCategoryName(rec.category) << "\"";
            if (rec.type == TraceType::Instant)
                os << ",\"s\":\"t\"";
            if (rec.type == TraceType::Counter) {
                os << ",\"args\":{\"value\":" << rec.arg
                   << ",\"cycle\":" << rec.cycle << "}";
            } else {
                os << ",\"args\":{\"cycle\":" << rec.cycle
                   << ",\"arg\":" << rec.arg << ",\"arg2\":"
                   << rec.arg2 << "}";
            }
            os << "}";
        }
        if (t.dropped) {
            // Stamp the overflow marker at the track's end: drops are
            // a property of the whole track, and a ts of 0 would break
            // per-track timestamp monotonicity once the fleet merger
            // shifts this file onto the wall-epoch axis.
            const std::uint64_t last_ns =
                recs.empty() ? 0 : recs.back().wallNs;
            os << ",\n{\"ph\":\"i\",\"pid\":" << pid
               << ",\"tid\":" << t.tid << ",\"ts\":"
               << tsMicros(last_ns)
               << ",\"name\":\"trace-overflow\",\"cat\":"
                  "\"engine\",\"s\":\"t\",\"args\":{\"dropped\":"
               << t.dropped << "}}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"";
    // The object trace format allows a top-level metadata object; the
    // fleet merger reads the clock anchor and trace identity from it
    // to splice this file onto the wall-epoch timeline.
    if (!meta.traceId.empty()) {
        os << ",\"metadata\":{\"trace_id\":\""
           << json::escape(meta.traceId) << "\",\"span_id\":\"";
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(meta.spanId));
        os << hex << "\",\"parent_span_id\":\"";
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(
                          meta.parentSpanId));
        os << hex << "\",\"pid\":" << pid
           << ",\"clock_anchor\":{\"wall_us\":" << meta.wallAnchorUs
           << ",\"steady_ns\":" << meta.steadyAnchorNs
           << ",\"tsc\":" << meta.tscAnchor << "}}";
    }
    os << "}\n";
}

} // namespace slacksim::obs
