/**
 * @file
 * Status/error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  - something happened that indicates a simulator bug; aborts.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 * warn()   - functionality may not be modeled exactly, keep going.
 * inform() - plain status message.
 */

#ifndef SLACKSIM_UTIL_LOGGING_HH
#define SLACKSIM_UTIL_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace slacksim {

namespace detail {

/** Build a message string from any set of streamable arguments. */
template <typename... Args>
std::string
concatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort on an internal simulator bug. */
#define SLACKSIM_PANIC(...)                                                 \
    ::slacksim::detail::panicImpl(__FILE__, __LINE__,                       \
        ::slacksim::detail::concatMessage(__VA_ARGS__))

/** Exit on an unrecoverable user/configuration error. */
#define SLACKSIM_FATAL(...)                                                 \
    ::slacksim::detail::fatalImpl(__FILE__, __LINE__,                       \
        ::slacksim::detail::concatMessage(__VA_ARGS__))

/** Emit a warning but keep simulating. */
#define SLACKSIM_WARN(...)                                                  \
    ::slacksim::detail::warnImpl(                                           \
        ::slacksim::detail::concatMessage(__VA_ARGS__))

/** Emit an informational status message. */
#define SLACKSIM_INFORM(...)                                                \
    ::slacksim::detail::informImpl(                                         \
        ::slacksim::detail::concatMessage(__VA_ARGS__))

/** Internal invariant check that survives NDEBUG builds. */
#define SLACKSIM_ASSERT(cond, ...)                                          \
    do {                                                                    \
        if (!(cond)) {                                                      \
            SLACKSIM_PANIC("assertion failed: " #cond " ", __VA_ARGS__);    \
        }                                                                   \
    } while (0)

/** Globally silence inform()/warn() output (benches use this). */
void setQuietLogging(bool quiet);

/** @return true when inform()/warn() output is suppressed. */
bool quietLogging();

/**
 * Attribute this thread's warn()/inform() lines: engine threads
 * register their role ("worker 3", "manager") and optionally
 * a live target-clock source, so interleaved multi-threaded log lines
 * read "warn: [worker 3 @12345] ..." instead of being anonymous.
 * @param cycle the thread's local clock, or nullptr when it has none;
 *   must stay valid until the context is cleared.
 */
void setLogThreadContext(const std::string &role,
                         const std::atomic<std::uint64_t> *cycle =
                             nullptr);

/** Drop this thread's log attribution (thread exit / end of run). */
void clearLogThreadContext();

/** @return this thread's "[role @cycle] " prefix, or "" if none. */
std::string logThreadPrefix();

} // namespace slacksim

#endif // SLACKSIM_UTIL_LOGGING_HH
