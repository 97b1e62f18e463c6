/**
 * @file
 * Job-server client implementation: newline-JSON protocol plus the
 * transport retry / reconnect layer (see client.hh).
 */

#include "serve/client.hh"

#include <chrono>
#include <thread>

#include "util/json.hh"

namespace slacksim {
namespace serve {

namespace {

/** Replies may take as long as a slow simulation keeps the daemon's
 *  handler busy; be generous but never infinite. */
constexpr int kReplyTimeoutMs = 120000;

/** xorshift64* step for jitter — cheap, seedable, and keeps the
 *  client free of any dependence on global randomness (retry
 *  schedules stay reproducible under a fixed seed). */
std::uint64_t
nextJitter(std::uint64_t *state)
{
    std::uint64_t x = *state ? *state : 0x9e3779b97f4a7c15ull;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    return x * 0x2545f4914f6cdd1dull;
}

} // namespace

Client::Client(const std::string &socketPath, RetryPolicy policy)
    : socketPath_(socketPath),
      policy_(policy),
      jitterState_(policy.jitterSeed),
      conn_(UdsConn::connect(socketPath))
{
    if (!conn_.valid() && policy_.attempts > 1) {
        std::string ignored;
        ensureConnected(&ignored);
    }
}

void
Client::backoff(std::uint32_t attempt)
{
    // Capped exponential: base * 2^(attempt-1), then half fixed +
    // half jittered so a fleet of retrying clients never stampedes
    // the daemon in lockstep.
    std::uint64_t delay = policy_.baseMs;
    for (std::uint32_t i = 1; i < attempt && delay < policy_.maxMs;
         ++i) {
        delay *= 2;
    }
    if (delay > policy_.maxMs)
        delay = policy_.maxMs;
    const std::uint64_t half = delay / 2;
    const std::uint64_t jitter =
        half ? nextJitter(&jitterState_) % half : 0;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(half + jitter));
}

bool
Client::ensureConnected(std::string *error)
{
    if (conn_.valid())
        return true;
    for (std::uint32_t attempt = 1; attempt <= policy_.attempts;
         ++attempt) {
        conn_ = UdsConn::connect(socketPath_);
        if (conn_.valid())
            return true;
        if (attempt < policy_.attempts)
            backoff(attempt);
    }
    *error = "could not connect to " + socketPath_ + " after " +
             std::to_string(policy_.attempts) + " attempt(s)";
    return false;
}

bool
Client::request(const std::string &frame, json::Value *reply,
                std::string *error)
{
    for (std::uint32_t attempt = 1;; ++attempt) {
        std::string transport_error;
        if (!ensureConnected(&transport_error)) {
            *error = transport_error;
            return false;
        }
        bool transport_failed = false;
        if (!conn_.sendLine(frame)) {
            transport_error = "send failed";
            transport_failed = true;
        } else {
            std::string line;
            const UdsConn::Recv r =
                conn_.recvLine(line, kReplyTimeoutMs);
            if (r != UdsConn::Recv::Line) {
                transport_error = r == UdsConn::Recv::Timeout
                                      ? "reply timed out"
                                      : "connection closed";
                transport_failed = true;
            } else {
                json::Value doc;
                try {
                    doc = json::parse(line);
                    if (!doc.at("ok").asBool()) {
                        // Protocol-level refusal: a definitive
                        // answer, never retried.
                        *error = doc.has("error")
                                     ? doc.at("error").asString()
                                     : "request failed";
                        return false;
                    }
                } catch (const json::ParseError &e) {
                    *error = std::string("bad reply: ") + e.what();
                    return false;
                }
                if (reply)
                    *reply = std::move(doc);
                return true;
            }
        }
        if (transport_failed) {
            conn_ = UdsConn(); // drop the dead socket
            if (attempt >= policy_.attempts) {
                *error = transport_error + " (after " +
                         std::to_string(attempt) + " attempt(s))";
                return false;
            }
            backoff(attempt);
        }
    }
}

std::uint64_t
Client::submit(const std::string &specJson, std::string *error,
               const std::string &idempotencyKey, bool *duplicate)
{
    if (duplicate)
        *duplicate = false;
    // The spec rides inside the frame as a JSON value, not a string:
    // splice the already-serialized object in directly.
    json::Value spec;
    try {
        spec = json::parse(specJson);
        (void)spec;
    } catch (const json::ParseError &e) {
        *error = std::string("spec is not valid JSON: ") + e.what();
        return 0;
    }
    // The wire is newline-framed; flatten the (multi-line) spec file.
    // Strict JSON forbids raw newlines inside strings (they must be
    // escaped as \n), so every newline here is layout whitespace.
    std::string flat = specJson;
    for (char &c : flat) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    std::string frame = "{\"op\": \"submit\"";
    if (!idempotencyKey.empty()) {
        frame += ", \"idempotency_key\":\"" +
                 json::escape(idempotencyKey) + "\"";
    }
    frame += ", \"spec\": " + flat + "}";
    json::Value reply;
    if (!request(frame, &reply, error))
        return 0;
    try {
        if (duplicate && reply.has("duplicate"))
            *duplicate = reply.at("duplicate").asBool();
        return reply.at("id").asUint();
    } catch (const json::ParseError &e) {
        *error = std::string("bad reply: ") + e.what();
        return 0;
    }
}

bool
Client::cancel(std::uint64_t id, std::string *error)
{
    return request("{\"op\": \"cancel\", \"id\": " +
                       std::to_string(id) + "}",
                   nullptr, error);
}

bool
Client::status(std::uint64_t id, json::Value *reply,
               std::string *error)
{
    std::string frame = "{\"op\": \"status\"";
    if (id != 0)
        frame += ", \"id\": " + std::to_string(id);
    frame += "}";
    return request(frame, reply, error);
}

bool
Client::stats(json::Value *reply, std::string *error)
{
    return request("{\"op\": \"stats\"}", reply, error);
}

bool
Client::metricsText(std::string *text, std::string *error)
{
    json::Value reply;
    if (!request("{\"op\": \"metrics\"}", &reply, error))
        return false;
    try {
        *text = reply.at("text").asString();
    } catch (const json::ParseError &e) {
        *error = std::string("bad reply: ") + e.what();
        return false;
    }
    return true;
}

bool
Client::fleetTrace(std::string *json, std::string *error)
{
    json::Value reply;
    if (!request("{\"op\": \"trace\"}", &reply, error))
        return false;
    try {
        *json = reply.at("json").asString();
    } catch (const json::ParseError &e) {
        *error = std::string("bad reply: ") + e.what();
        return false;
    }
    return true;
}

bool
Client::shutdown(bool drain, std::string *error)
{
    return request(std::string("{\"op\": \"shutdown\", \"drain\": ") +
                       (drain ? "true" : "false") + "}",
                   nullptr, error);
}

bool
Client::watch(std::uint64_t id,
              const std::function<void(const json::Value &)> &onEvent,
              std::string *error)
{
    // State/end events carry a per-job seq; remembering the last one
    // seen lets a reconnect resume without replaying transitions the
    // callback already handled.
    std::uint64_t last_seq = 0;
    for (std::uint32_t attempt = 1;; ++attempt) {
        std::string transport_error;
        if (!ensureConnected(&transport_error)) {
            *error = transport_error;
            return false;
        }
        std::string frame =
            "{\"op\": \"watch\", \"id\": " + std::to_string(id);
        if (last_seq != 0)
            frame += ", \"from_seq\": " + std::to_string(last_seq);
        frame += "}";
        bool transport_failed = false;
        if (!conn_.sendLine(frame)) {
            transport_error = "send failed";
            transport_failed = true;
        }
        while (!transport_failed) {
            std::string line;
            const UdsConn::Recv r =
                conn_.recvLine(line, kReplyTimeoutMs);
            if (r != UdsConn::Recv::Line) {
                transport_error = r == UdsConn::Recv::Timeout
                                      ? "watch timed out"
                                      : "connection closed mid-watch";
                transport_failed = true;
                break;
            }
            json::Value event;
            try {
                event = json::parse(line);
                if (!event.at("ok").asBool()) {
                    *error = event.has("error")
                                 ? event.at("error").asString()
                                 : "watch failed";
                    return false;
                }
                if (event.has("seq"))
                    last_seq = event.at("seq").asUint();
                onEvent(event);
                if (event.at("event").asString() == "end")
                    return true;
            } catch (const json::ParseError &e) {
                *error = std::string("bad event: ") + e.what();
                return false;
            }
        }
        conn_ = UdsConn(); // drop the dead socket
        if (attempt >= policy_.attempts) {
            *error = transport_error + " (after " +
                     std::to_string(attempt) + " attempt(s))";
            return false;
        }
        backoff(attempt);
    }
}

} // namespace serve
} // namespace slacksim
