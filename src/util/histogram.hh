/**
 * @file
 * Power-of-two-bucketed histogram for latency/distance distributions
 * (bus queueing delay, rollback distances, violation gaps). Constant
 * memory, O(1) insert, snapshot-friendly.
 */

#ifndef SLACKSIM_UTIL_HISTOGRAM_HH
#define SLACKSIM_UTIL_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "util/types.hh"

namespace slacksim {

/**
 * Log2-bucketed histogram: bucket i counts values in
 * [2^(i-1), 2^i - 1] (bucket 0 counts value 0 and 1... precisely:
 * bucket index = bit-width of the value). 64 buckets cover the full
 * std::uint64_t range.
 */
class Log2Histogram
{
  public:
    /** Record one sample. */
    void
    add(std::uint64_t value)
    {
        ++buckets_[bucketOf(value)];
        ++count_;
        sum_ += value;
        if (value < min_ || count_ == 1)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    /** @return bucket index a value falls into. */
    static std::uint32_t
    bucketOf(std::uint64_t value)
    {
        return value == 0 ? 0 : 64 - static_cast<std::uint32_t>(
                                         __builtin_clzll(value));
    }

    /** @return inclusive lower bound of bucket @p i. */
    static std::uint64_t
    bucketLow(std::uint32_t i)
    {
        return i == 0 ? 0 : 1ull << (i - 1);
    }

    /** @return inclusive upper bound of bucket @p i. */
    static std::uint64_t
    bucketHigh(std::uint32_t i)
    {
        return i >= 64 ? ~0ull : (1ull << i) - 1;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /** Arithmetic mean (0 when empty). */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }

    /**
     * Approximate p-th percentile (0..100): upper bound of the bucket
     * containing that rank.
     */
    std::uint64_t percentile(double p) const;

    /** @return samples in bucket @p i. */
    std::uint64_t
    bucketCount(std::uint32_t i) const
    {
        return buckets_[i];
    }

    /** Merge another histogram into this one. */
    void add(const Log2Histogram &other);

    /** Reset to empty. */
    void clear();

    /** Render a compact textual summary with an ASCII bar chart. */
    void print(std::ostream &os, const std::string &label) const;

    bool operator==(const Log2Histogram &) const = default;

  private:
    std::array<std::uint64_t, 65> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_HISTOGRAM_HH
