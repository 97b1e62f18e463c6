/**
 * @file
 * Per-run identity tokens for a multi-tenant process.
 *
 * Historically one process hosted exactly one simulation at a time,
 * so "the current run" was implicit. The serve subsystem runs many
 * simulations concurrently on a shared worker pool, which means every
 * piece of process-wide state reachable from the run path (the
 * recorder registry, the fault plan) must be able to answer
 * "which run does this thread belong to right now?".
 *
 * A run token is a process-unique, never-reused 64-bit id minted by
 * runSimulation(). The engine binds the token to every host thread it
 * borrows for the run (manager, workers) via ScopedRunToken;
 * the token-aware recorder registry (obs/recorder.hh) compares the
 * calling thread's token against the session owner's and ignores
 * threads that belong to a different run. Token 0 means "no run" and
 * matches the pre-serve single-tenant behavior everywhere.
 */

#ifndef SLACKSIM_UTIL_RUN_TOKEN_HH
#define SLACKSIM_UTIL_RUN_TOKEN_HH

#include <atomic>
#include <cstdint>

namespace slacksim {

namespace detail {

inline std::atomic<std::uint64_t> &
runTokenCounter()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter;
}

inline std::uint64_t &
tlsRunToken()
{
    thread_local std::uint64_t token = 0;
    return token;
}

} // namespace detail

/** Mint a fresh process-unique run token (never 0, never reused). */
inline std::uint64_t
newRunToken()
{
    return detail::runTokenCounter().fetch_add(
               1, std::memory_order_relaxed) +
           1;
}

/** @return the run token bound to the calling thread (0 = none). */
inline std::uint64_t
currentRunToken()
{
    return detail::tlsRunToken();
}

/** Bind a run token to the calling thread for a scope (saves and
 *  restores the previous binding, so nesting is safe). */
class ScopedRunToken
{
  public:
    explicit ScopedRunToken(std::uint64_t token)
        : prev_(detail::tlsRunToken())
    {
        detail::tlsRunToken() = token;
    }

    ~ScopedRunToken() { detail::tlsRunToken() = prev_; }

    ScopedRunToken(const ScopedRunToken &) = delete;
    ScopedRunToken &operator=(const ScopedRunToken &) = delete;

  private:
    std::uint64_t prev_;
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_RUN_TOKEN_HH
