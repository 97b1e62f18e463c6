/**
 * @file
 * Optional hardware counters for a profiling session, via
 * perf_event_open. Three process-wide counters (cycles, instructions,
 * cache-misses) opened with inherit=1 before worker threads spawn, so
 * every thread the run creates is counted. inherit is incompatible
 * with PERF_FORMAT_GROUP, hence three independent fds rather than one
 * group read.
 *
 * Availability is best-effort by design: unprivileged containers
 * commonly deny the syscall (EPERM/EACCES under a strict
 * perf_event_paranoid), CI sandboxes may lack it entirely (ENOSYS),
 * and non-Linux hosts have no perf_event at all. Every such case
 * degrades to available=false with a human-readable reason carried
 * into the run report — never an error.
 */

#ifndef SLACKSIM_OBS_HW_COUNTERS_HH
#define SLACKSIM_OBS_HW_COUNTERS_HH

#include <cstdint>
#include <string>

#include "obs/recorder.hh"

namespace slacksim::obs {

/** Session-scoped perf_event counters; see file comment. */
class HwCounters
{
  public:
    HwCounters() = default;
    ~HwCounters() { close(); }

    HwCounters(const HwCounters &) = delete;
    HwCounters &operator=(const HwCounters &) = delete;

    /**
     * Try to open the three counters. @p force_unavailable is a test
     * hook exercising the fallback path on machines where the real
     * syscall would succeed.
     * @return true when all three counters opened.
     */
    bool open(bool force_unavailable = false);

    /** @return true when counters are live. */
    bool
    available() const
    {
        return available_;
    }

    /** @return why counters are unavailable ("" when available). */
    const std::string &
    reason() const
    {
        return reason_;
    }

    /** Read the counters accumulated since open(). When unavailable,
     *  returns available=false and the reason. */
    HwCounterTotals read() const;

    /** Close the fds (idempotent). */
    void close();

  private:
    bool available_ = false;
    std::string reason_;
    int fds_[3] = {-1, -1, -1};
};

} // namespace slacksim::obs

#endif // SLACKSIM_OBS_HW_COUNTERS_HH
