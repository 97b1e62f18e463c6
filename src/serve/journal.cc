/**
 * @file
 * Journal replay implementation (see journal.hh for the protocol).
 */

#include "serve/journal.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "util/json.hh"

namespace slacksim {
namespace serve {

namespace {

/** Terminal lifecycle events (must mirror job_queue.cc's
 *  terminalEventName — a missed name here would replay a finished
 *  job, breaking exactly-once). */
bool
isTerminalEvent(const std::string &event)
{
    return event == "completed" || event == "failed" ||
           event == "cancelled" || event == "timed_out" ||
           event == "crashed";
}

/**
 * Read the optional 32-bit counter @p key of @p doc into @p out, left
 * as is when the key is absent or not a number. @return false when
 * the number is not an integer in [0, 2^32): a corrupt line.
 */
bool
readUint32(const json::Value &doc, const char *key, std::uint32_t *out)
{
    if (!doc.has(key) || !doc.at(key).isNumber())
        return true;
    const double n = doc.at(key).number;
    if (!json::isUint64(n) || n >= 0x1p32)
        return false;
    *out = static_cast<std::uint32_t>(n);
    return true;
}

} // namespace

bool
readJournal(const std::string &path, JournalReplay *out)
{
    std::ifstream in(path);
    if (!in.is_open())
        return false;
    // id -> index in out->jobs, preserving submission order.
    std::map<std::uint64_t, std::size_t> byId;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++out->linesRead;
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const json::ParseError &) {
            // Torn tail (daemon died mid-write) or foreign garbage;
            // either way the fsync contract says everything before
            // this line is complete, so just count and move on.
            ++out->linesSkipped;
            continue;
        }
        // The schema header line lands here, and so does a job id
        // that is no integer in [0, 2^64).
        if (!doc.isObject() || !doc.has("event") ||
            !doc.has("job") || !doc.at("event").isString() ||
            !doc.at("job").isNumber() ||
            !json::isUint64(doc.at("job").number)) {
            ++out->linesSkipped;
            continue;
        }
        const std::string event = doc.at("event").str;
        const std::uint64_t id =
            static_cast<std::uint64_t>(doc.at("job").number);
        if (event == "submitted") {
            JournalJob job;
            job.id = id;
            if (!readUint32(doc, "attempt", &job.attempt) ||
                !readUint32(doc, "max_attempts", &job.maxAttempts)) {
                ++out->linesSkipped;
                continue;
            }
            if (doc.has("spec") && doc.at("spec").isObject()) {
                // Re-encode so the server gets the exact object the
                // client submitted.
                std::ostringstream os;
                json::encode(os, doc.at("spec"));
                job.specJson = os.str();
            }
            if (doc.has("idempotency_key") &&
                doc.at("idempotency_key").isString()) {
                job.idempotencyKey = doc.at("idempotency_key").str;
            }
            byId[id] = out->jobs.size();
            out->jobs.push_back(std::move(job));
            continue;
        }
        auto it = byId.find(id);
        if (it == byId.end())
            continue; // heartbeat for a pre-rotation job; ignore
        if (event == "started")
            out->jobs[it->second].started = true;
        else if (isTerminalEvent(event))
            out->jobs[it->second].terminal = true;
    }
    return true;
}

std::string
rotateJournal(const std::string &path)
{
    if (!std::ifstream(path).is_open())
        return "";
    for (int n = 1; n < 10000; ++n) {
        const std::string target = path + "." + std::to_string(n);
        if (std::ifstream(target).is_open())
            continue; // generation already archived
        if (std::rename(path.c_str(), target.c_str()) == 0)
            return target;
        return "";
    }
    return "";
}

} // namespace serve
} // namespace slacksim
