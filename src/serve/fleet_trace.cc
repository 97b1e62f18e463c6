/**
 * @file
 * Fleet-trace merger implementation (see fleet_trace.hh).
 */

#include "serve/fleet_trace.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hh"

namespace slacksim {
namespace serve {

namespace {

/** Wall-epoch microseconds rendered with sub-us precision. */
std::string
tsFromNs(std::int64_t wall_ns)
{
    if (wall_ns < 0)
        wall_ns = 0;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(wall_ns / 1000),
                  static_cast<long long>(wall_ns % 1000));
    return buf;
}

double
numberOr(const json::Value &doc, const char *key, double fallback)
{
    if (doc.isObject() && doc.has(key) && doc.at(key).isNumber())
        return doc.at(key).number;
    return fallback;
}

std::string
stringOr(const json::Value &doc, const char *key,
         const std::string &fallback)
{
    if (doc.isObject() && doc.has(key) && doc.at(key).isString())
        return doc.at(key).str;
    return fallback;
}

/** One heartbeat observed for a job (already on the wall axis). */
struct Beat
{
    std::uint64_t wallUs = 0;
    double epochs = 0;
    double cyclesPerSec = 0;
    double firstBeatMs = -1.0; //!< spawn_to_first_heartbeat_ms
};

/** Everything the journal knows about one job's lifecycle. */
struct JobTimeline
{
    std::uint64_t id = 0;
    std::string name;
    std::string kernel;
    std::string traceId;
    std::string rootSpanHex;
    std::string isolation;
    std::string terminalEvent;
    std::uint64_t tSubmitted = 0;
    std::uint64_t tValidated = 0;
    std::uint64_t tAdmitted = 0;
    std::uint64_t tStarted = 0;
    std::uint64_t tTerminal = 0;
    std::uint64_t lastTs = 0; //!< max event ts seen for this job
    std::vector<Beat> beats;
};

/** Streaming event-array writer: tracks the comma state. */
class EventSink
{
  public:
    explicit EventSink(std::ostream &os) : os_(os) {}

    /** Append one already-rendered event object. */
    void
    raw(const std::string &event_json)
    {
        os_ << (first_ ? "\n" : ",\n") << event_json;
        first_ = false;
    }

    /** Append a B/E/i span event on the server's per-job track. */
    void
    span(const char *ph, std::uint32_t pid, std::uint64_t tid,
         std::uint64_t ts_us, const char *name, const char *cat,
         const std::string &args)
    {
        std::ostringstream e;
        e << "{\"ph\":\"" << ph << "\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"ts\":" << ts_us
          << ",\"name\":\"" << name << "\",\"cat\":\"" << cat << "\"";
        if (ph[0] == 'i')
            e << ",\"s\":\"t\"";
        e << ",\"args\":{" << args << "}}";
        raw(e.str());
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

/** Parse a whole JSON file; Null on any failure. */
json::Value
parseFileOrNull(const std::string &path)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in.is_open())
        return json::Value();
    std::ostringstream body;
    body << in.rdbuf();
    try {
        return json::parse(body.str());
    } catch (const json::ParseError &) {
        return json::Value();
    }
}

/** Load `role;phase us` folded-stack lines as args-object entries. */
std::string
foldedProfileArgs(const std::string &path)
{
    std::ifstream in(path);
    if (!in.is_open())
        return "";
    std::ostringstream args;
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            continue;
        if (!first)
            args << ",";
        first = false;
        args << "\"" << json::escape(line.substr(0, space))
             << "\":" << line.substr(space + 1);
    }
    if (first)
        return "";
    return args.str();
}

/**
 * Splice one job's Chrome trace into the merged stream: shift every
 * timestamp by the child's clock anchor (recorded in the file's
 * metadata at session begin) and stamp job_id/trace_id into every
 * non-metadata event's args. @return the trace_id the file carried.
 */
std::string
spliceJobTrace(EventSink &sink, const json::Value &trace,
               const JobTimeline &job)
{
    if (!trace.isObject() || !trace.has("traceEvents") ||
        trace.at("traceEvents").type != json::Value::Type::Array) {
        return "";
    }
    // Files written before the span layer carry no anchor; fall back
    // to the job's started timestamp so the engine track still lands
    // near its true position instead of at the epoch.
    std::uint64_t anchor_us = job.tStarted;
    std::string file_trace_id;
    if (trace.has("metadata") && trace.at("metadata").isObject()) {
        const json::Value &meta = trace.at("metadata");
        file_trace_id = stringOr(meta, "trace_id", "");
        if (meta.has("clock_anchor")) {
            anchor_us = static_cast<std::uint64_t>(numberOr(
                meta.at("clock_anchor"), "wall_us",
                static_cast<double>(anchor_us)));
        }
    }
    const std::string id_args =
        "\"job_id\":\"job-" + std::to_string(job.id) +
        "\",\"trace_id\":\"" + json::escape(job.traceId) + "\"";
    for (const json::Value &event : trace.at("traceEvents").array) {
        if (!event.isObject())
            continue;
        const std::string ph = stringOr(event, "ph", "");
        const bool meta_event = ph == "M";
        std::ostringstream e;
        e << '{';
        bool first = true;
        bool saw_args = false;
        for (const auto &[key, val] : event.object) {
            if (!first)
                e << ',';
            first = false;
            e << '"' << json::escape(key) << "\":";
            if (key == "ts" && val.isNumber() && !meta_event) {
                // Engine timestamps are µs since trace activation;
                // the anchor moves them onto the wall-epoch axis.
                const std::int64_t shifted_ns =
                    static_cast<std::int64_t>(anchor_us) * 1000 +
                    static_cast<std::int64_t>(val.number * 1000.0 +
                                              0.5);
                e << tsFromNs(shifted_ns);
            } else if (key == "args" &&
                       val.type == json::Value::Type::Object &&
                       !meta_event) {
                saw_args = true;
                e << '{' << id_args;
                for (const auto &[akey, aval] : val.object) {
                    e << ",\"" << json::escape(akey) << "\":";
                    json::encode(e, aval);
                }
                e << '}';
            } else {
                json::encode(e, val);
            }
        }
        if (!saw_args && !meta_event)
            e << (first ? "" : ",") << "\"args\":{" << id_args << '}';
        e << '}';
        sink.raw(e.str());
    }
    return file_trace_id;
}

} // namespace

bool
writeFleetTrace(std::ostream &os, const std::string &outRoot,
                std::string *error)
{
    const std::string journal_path = outRoot + "/server_events.jsonl";
    std::ifstream in(journal_path);
    if (!in.is_open()) {
        if (error)
            *error = "no event journal at " + journal_path +
                     " (is --out-root right?)";
        return false;
    }

    // --- Pass 1: fold the journal into per-job timelines. ---------
    bool have_anchor = false;
    std::uint64_t anchor_wall_ms = 0;
    std::uint64_t anchor_steady_ns = 0;
    std::uint32_t server_pid = 1; // pre-pid journals: synthetic pid
    std::map<std::uint64_t, JobTimeline> jobs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const json::ParseError &) {
            continue; // torn tail; fsync guarantees the prefix
        }
        if (!doc.isObject())
            continue;
        if (doc.has("schema") && !doc.has("event")) {
            // Journal header: the paired wall/steady anchor that puts
            // every steady-stamped event on the wall-epoch axis.
            anchor_wall_ms = static_cast<std::uint64_t>(
                numberOr(doc, "wall_ms", 0));
            anchor_steady_ns = static_cast<std::uint64_t>(
                numberOr(doc, "steady_ns", 0));
            have_anchor = anchor_wall_ms != 0;
            server_pid = static_cast<std::uint32_t>(
                numberOr(doc, "pid", 1));
            continue;
        }
        if (!doc.has("event") || !doc.has("job") ||
            !doc.at("event").isString() || !doc.at("job").isNumber()) {
            continue;
        }
        const std::string event = doc.at("event").str;
        const auto id =
            static_cast<std::uint64_t>(doc.at("job").number);
        JobTimeline &job = jobs[id];
        job.id = id;

        const std::uint64_t wall_ms =
            static_cast<std::uint64_t>(numberOr(doc, "wall_ms", 0));
        const std::uint64_t steady_ns =
            static_cast<std::uint64_t>(numberOr(doc, "steady_ns", 0));
        // Events recorded before the first flush predate the header
        // anchor, so the steady delta below can be negative.
        std::uint64_t ts = wall_ms * 1000;
        if (have_anchor && steady_ns != 0) {
            ts = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(anchor_wall_ms) * 1000 +
                (static_cast<std::int64_t>(steady_ns) -
                 static_cast<std::int64_t>(anchor_steady_ns)) /
                    1000);
        }
        job.lastTs = std::max(job.lastTs, ts);
        if (doc.has("trace_id") && doc.at("trace_id").isString())
            job.traceId = doc.at("trace_id").str;

        if (event == "submitted") {
            job.tSubmitted = ts;
            job.name = stringOr(doc, "name", "");
            job.kernel = stringOr(doc, "kernel", "");
            job.rootSpanHex = stringOr(doc, "span_id", "");
        } else if (event == "validated") {
            job.tValidated = ts;
        } else if (event == "admitted") {
            job.tAdmitted = ts;
        } else if (event == "started") {
            job.tStarted = ts;
            job.isolation = stringOr(doc, "isolation", "");
        } else if (event == "heartbeat") {
            Beat beat;
            beat.wallUs = ts;
            beat.epochs = numberOr(doc, "epochs", 0);
            beat.cyclesPerSec = numberOr(doc, "cycles_per_sec", 0);
            beat.firstBeatMs =
                numberOr(doc, "spawn_to_first_heartbeat_ms", -1.0);
            job.beats.push_back(beat);
        } else if (event == "completed" || event == "failed" ||
                   event == "cancelled" || event == "timed_out" ||
                   event == "crashed") {
            job.tTerminal = ts;
            job.terminalEvent = event;
        }
    }

    // --- Pass 2: emit the merged timeline. ------------------------
    os << "{\"traceEvents\":[";
    EventSink sink(os);
    sink.raw("{\"ph\":\"M\",\"pid\":" + std::to_string(server_pid) +
             ",\"tid\":0,\"name\":\"process_name\",\"args\":{"
             "\"name\":\"slacksim-serve\"}}");

    std::uint64_t spliced_traces = 0;
    for (auto &[id, job] : jobs) {
        (void)id;
        // One server track per job; real daemon pid, tid = job id so
        // concurrent jobs render as parallel rows.
        std::string label = "job-" + std::to_string(job.id);
        if (!job.name.empty() && job.name != label)
            label += " " + job.name;
        if (!job.kernel.empty())
            label += " (" + job.kernel + ")";
        sink.raw("{\"ph\":\"M\",\"pid\":" +
                 std::to_string(server_pid) +
                 ",\"tid\":" + std::to_string(job.id) +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                 json::escape(label) + "\"}}");

        const std::string base_args =
            "\"job_id\":\"job-" + std::to_string(job.id) +
            "\",\"trace_id\":\"" + json::escape(job.traceId) + "\"";
        // A job with no terminal event is still running (or the
        // daemon died); close its open spans at the last evidence so
        // the merged trace stays balanced.
        const std::uint64_t close =
            job.tTerminal ? job.tTerminal : job.lastTs;
        const bool complete = job.tTerminal != 0;

        if (job.tSubmitted == 0)
            job.tSubmitted = job.lastTs; // recovered mid-journal
        std::string root_args = base_args;
        if (!job.rootSpanHex.empty())
            root_args += ",\"span_id\":\"" + job.rootSpanHex + "\"";
        if (!complete)
            root_args += ",\"incomplete\":true";
        if (!job.terminalEvent.empty()) {
            root_args +=
                ",\"outcome\":\"" + job.terminalEvent + "\"";
        }
        sink.span("B", server_pid, job.id, job.tSubmitted, "job",
                  "server", root_args);
        const std::uint64_t t_validated =
            job.tValidated ? job.tValidated : job.tSubmitted;
        sink.span("B", server_pid, job.id, job.tSubmitted, "validate",
                  "server", base_args);
        sink.span("E", server_pid, job.id, t_validated, "validate",
                  "server", base_args);
        const std::uint64_t queued_end =
            job.tAdmitted ? job.tAdmitted
                          : (job.tStarted ? job.tStarted : close);
        sink.span("B", server_pid, job.id, t_validated, "queued",
                  "scheduler", base_args);
        sink.span("E", server_pid, job.id, queued_end, "queued",
                  "scheduler", base_args);

        if (job.tStarted != 0) {
            std::string run_args = base_args;
            if (!job.isolation.empty()) {
                run_args +=
                    ",\"isolation\":\"" + job.isolation + "\"";
            }
            // Join the engine side of the story into the run span:
            // the report's engine span id and the folded profile's
            // host-time phase totals (no time axis of their own).
            const std::string dir =
                outRoot + "/job-" + std::to_string(job.id);
            const json::Value report =
                parseFileOrNull(dir + "/report.json");
            if (report.isObject() && report.has("trace") &&
                report.at("trace").isObject()) {
                const json::Value &rt = report.at("trace");
                const std::string span = stringOr(rt, "span_id", "");
                if (!span.empty())
                    run_args += ",\"engine_span_id\":\"" + span + "\"";
                if (job.traceId.empty())
                    job.traceId = stringOr(rt, "trace_id", "");
            }
            const std::string profile = foldedProfileArgs(
                dir + "/job-" + std::to_string(job.id) +
                ".profile.folded");
            if (!profile.empty())
                run_args += ",\"profile_us\":{" + profile + "}";

            const std::uint64_t run_end =
                std::max(close, job.tStarted);
            sink.span("B", server_pid, job.id, job.tStarted, "run",
                      "server", run_args);
            // The supervisor's launch-to-visible span: fork (started)
            // until the scheduler first saw the child simulating. The
            // span closes at the first heartbeat's own journal stamp
            // (keeping the track's timestamps monotone); the measured
            // duration rides along as an arg.
            for (const Beat &beat : job.beats) {
                if (beat.firstBeatMs >= 0.0) {
                    const std::uint64_t spawn_end = std::min(
                        run_end, std::max(beat.wallUs, job.tStarted));
                    char ms[64];
                    std::snprintf(ms, sizeof(ms),
                                  ",\"spawn_to_first_heartbeat_ms\":"
                                  "%.3f",
                                  beat.firstBeatMs);
                    sink.span("B", server_pid, job.id, job.tStarted,
                              "spawn-to-heartbeat", "supervisor",
                              base_args + ms);
                    sink.span("E", server_pid, job.id, spawn_end,
                              "spawn-to-heartbeat", "supervisor",
                              base_args + ms);
                    break;
                }
            }
            for (const Beat &beat : job.beats) {
                char extra[128];
                std::snprintf(extra, sizeof(extra),
                              ",\"epochs\":%.0f"
                              ",\"cycles_per_sec\":%.0f",
                              beat.epochs, beat.cyclesPerSec);
                sink.span("i", server_pid, job.id,
                          std::min(std::max(beat.wallUs,
                                            job.tStarted),
                                   run_end),
                          "heartbeat", "scheduler",
                          base_args + extra);
            }
            sink.span("E", server_pid, job.id, run_end, "run",
                      "server", run_args);

            // Splice the child's own Chrome trace (when the job asked
            // for one) under the child's real pid.
            const json::Value trace = parseFileOrNull(
                dir + "/job-" + std::to_string(job.id) +
                ".trace.json");
            if (!trace.isNull()) {
                spliceJobTrace(sink, trace, job);
                ++spliced_traces;
            }
        }
        // Never close the root before its children: a crashed child
        // can leave close < tStarted.
        sink.span("E", server_pid, job.id,
                  std::max(std::max(close, job.tSubmitted),
                           job.tStarted),
                  "job", "server", root_args);
    }

    os << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{"
       << "\"schema\":\"slacksim.fleet_trace.v1\",\"server_pid\":"
       << server_pid << ",\"jobs\":" << jobs.size()
       << ",\"engine_traces\":" << spliced_traces
       << ",\"clock\":\"wall-epoch-us\"}}\n";
    return true;
}

} // namespace serve
} // namespace slacksim
