/** @file Span-id minting and clock anchoring (see span.hh). */

#include "obs/span.hh"

#include <atomic>
#include <chrono>
#include <cstdio>

#include <unistd.h>

#include "obs/recorder.hh"

namespace slacksim::obs {

namespace {

/** splitmix64 finalizer: cheap, well-distributed avalanche mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
mintRaw()
{
    static std::atomic<std::uint64_t> counter{0};
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t seed =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now.time_since_epoch())
                .count()) ^
        (static_cast<std::uint64_t>(::getpid()) << 32) ^
        counter.fetch_add(1, std::memory_order_relaxed);
    return mix64(seed);
}

} // namespace

ClockAnchor
captureClockAnchor()
{
    ClockAnchor anchor;
    anchor.wallUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    anchor.steadyNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    anchor.tsc = tscNow();
    anchor.pid = static_cast<std::uint32_t>(::getpid());
    return anchor;
}

std::string
mintTraceId()
{
    return spanIdHex(mintSpanId());
}

std::uint64_t
mintSpanId()
{
    std::uint64_t id = mintRaw();
    while (id == 0) // 0 is the "no span" sentinel everywhere
        id = mintRaw();
    return id;
}

std::string
spanIdHex(std::uint64_t span_id)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(span_id));
    return std::string(buf);
}

} // namespace slacksim::obs
