/**
 * @file
 * ViolationLedger and decision-log implementation.
 */

#include "obs/forensics.hh"

#include <algorithm>

#include "util/logging.hh"

namespace slacksim {
namespace obs {

void
ViolationLedger::reset(std::uint32_t num_cores)
{
    numCores_ = num_cores;
    busTotal_ = 0;
    mapTotal_ = 0;
    untracked_ = 0;
    busSlack_.clear();
    mapSlack_.clear();
    const std::size_t cells = std::size_t(numCores_ + 1) * numCores_;
    busPair_.assign(cells, 0);
    mapPair_.assign(cells, 0);
    buckets_.clear();
}

void
ViolationLedger::record(ViolationKind kind, Addr line, CoreId requester,
                        CoreId prior, Tick slack)
{
    if (numCores_ == 0)
        return; // never reset(): attribution has nowhere to go
    const std::size_t idx = pairIndex(requester, prior);
    if (kind == ViolationKind::Bus) {
        ++busTotal_;
        busSlack_.add(slack);
        ++busPair_[idx];
    } else {
        ++mapTotal_;
        mapSlack_.add(slack);
        ++mapPair_[idx];
    }

    const Addr bucket = line >> bucketShift;
    BucketCounts *counts = buckets_.find(bucket);
    if (!counts) {
        if (buckets_.size() >= maxTrackedBuckets) {
            ++untracked_;
            return;
        }
        counts = &buckets_[bucket];
    }
    if (kind == ViolationKind::Bus)
        ++counts->bus;
    else
        ++counts->map;
}

std::vector<ViolationLedger::Offender>
ViolationLedger::offenders() const
{
    std::vector<Offender> all;
    all.reserve(buckets_.size());
    buckets_.forEach([&all](Addr bucket, const BucketCounts &counts) {
        all.push_back(Offender{bucket, counts.bus, counts.map});
    });
    return all;
}

std::vector<ViolationLedger::Offender>
ViolationLedger::topOffenders(std::size_t k) const
{
    std::vector<Offender> all = offenders();
    std::sort(all.begin(), all.end(),
              [](const Offender &a, const Offender &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.bucket < b.bucket;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

std::vector<ViolationLedger::PairCount>
ViolationLedger::nonzeroPairs() const
{
    std::vector<PairCount> pairs;
    for (std::uint32_t p = 0; p <= numCores_; ++p) {
        for (std::uint32_t r = 0; r < numCores_; ++r) {
            const std::size_t idx = std::size_t(p) * numCores_ + r;
            const std::uint64_t bus = busPair_[idx];
            const std::uint64_t map = mapPair_[idx];
            if (bus == 0 && map == 0)
                continue;
            PairCount pc;
            pc.requester = r;
            pc.prior = p == numCores_ ? invalidCore : p;
            pc.bus = bus;
            pc.map = map;
            pairs.push_back(pc);
        }
    }
    return pairs;
}

void
ViolationLedger::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xf04e);
    writer.put<std::uint32_t>(numCores_);
    writer.put<std::uint64_t>(busTotal_);
    writer.put<std::uint64_t>(mapTotal_);
    writer.put<std::uint64_t>(untracked_);
    writer.put(busSlack_);
    writer.put(mapSlack_);
    writer.putVector(busPair_);
    writer.putVector(mapPair_);
    // Sorted bucket order keeps snapshot bytes deterministic (the
    // fork-checkpoint determinism check hashes them).
    std::vector<Offender> all = offenders();
    std::sort(all.begin(), all.end(),
              [](const Offender &a, const Offender &b) {
                  return a.bucket < b.bucket;
              });
    writer.put<std::uint64_t>(all.size());
    for (const Offender &off : all)
        writer.put(off);
}

void
ViolationLedger::restore(SnapshotReader &reader)
{
    reader.checkMarker(0xf04e);
    numCores_ = reader.get<std::uint32_t>();
    busTotal_ = reader.get<std::uint64_t>();
    mapTotal_ = reader.get<std::uint64_t>();
    untracked_ = reader.get<std::uint64_t>();
    busSlack_ = reader.get<Log2Histogram>();
    mapSlack_ = reader.get<Log2Histogram>();
    busPair_ = reader.getVector<std::uint64_t>();
    mapPair_ = reader.getVector<std::uint64_t>();
    buckets_.clear();
    const auto n = reader.get<std::uint64_t>();
    SLACKSIM_ASSERT(n <= maxTrackedBuckets, "ledger snapshot holds ", n,
                    " buckets, past the tracking cap");
    buckets_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto off = reader.get<Offender>();
        buckets_[off.bucket] = {off.bus, off.map};
    }
}

const char *
bandVerdictName(BandVerdict v)
{
    switch (v) {
      case BandVerdict::Hold:
        return "hold";
      case BandVerdict::Grow:
        return "grow";
      case BandVerdict::Shrink:
        return "shrink";
      case BandVerdict::Restored:
        return "restored";
    }
    return "unknown";
}

const char *
episodeKindName(EpisodeKind k)
{
    switch (k) {
      case EpisodeKind::Checkpoint:
        return "checkpoint";
      case EpisodeKind::Rollback:
        return "rollback";
      case EpisodeKind::Replay:
        return "replay";
    }
    return "unknown";
}

} // namespace obs
} // namespace slacksim
