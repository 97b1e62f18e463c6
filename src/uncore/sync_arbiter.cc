/**
 * @file
 * SyncArbiter implementation.
 */

#include "uncore/sync_arbiter.hh"

#include <algorithm>

#include "util/logging.hh"

namespace slacksim {

SyncArbiter::SyncArbiter(std::uint32_t num_locks,
                         std::uint32_t num_barriers,
                         std::uint32_t participants, Tick grant_latency,
                         UncoreStats *stats)
    : participants_(participants),
      grantLatency_(grant_latency),
      stats_(stats),
      locks_(num_locks),
      barriers_(num_barriers)
{
    SLACKSIM_ASSERT(participants_ >= 1 && participants_ <= 64,
                    "bad barrier participant count");
    SLACKSIM_ASSERT(stats_ != nullptr, "SyncArbiter needs stats");
}

void
SyncArbiter::handle(const BusMsg &msg, std::vector<SyncGrantMsg> &out)
{
    switch (msg.type) {
      case MsgType::LockAcq: {
        SLACKSIM_ASSERT(msg.sync < locks_.size(),
                        "lock id out of range: ", msg.sync);
        LockState &lock = locks_[msg.sync];
        ++stats_->lockAcquires;
        if (!lock.held) {
            lock.held = true;
            lock.holder = msg.src;
            out.push_back({msg.src, msg.ts + grantLatency_, msg.sync});
        } else {
            SLACKSIM_ASSERT(lock.holder != msg.src,
                            "core ", msg.src, " re-acquires lock ",
                            msg.sync);
            lock.waitQueue.push_back({.core = msg.src, .ts = msg.ts});
            ++stats_->lockQueued;
        }
        break;
      }
      case MsgType::LockRel: {
        SLACKSIM_ASSERT(msg.sync < locks_.size(),
                        "lock id out of range: ", msg.sync);
        LockState &lock = locks_[msg.sync];
        SLACKSIM_ASSERT(lock.held && lock.holder == msg.src,
                        "core ", msg.src,
                        " releases a lock it does not hold: ",
                        msg.sync);
        if (lock.waitQueue.empty()) {
            lock.held = false;
            lock.holder = invalidCore;
        } else {
            const Waiter next = lock.waitQueue.front();
            lock.waitQueue.erase(lock.waitQueue.begin());
            lock.holder = next.core;
            // The successor observes the release: its grant cannot
            // precede either its own request or the release.
            const Tick when = std::max(next.ts, msg.ts) + grantLatency_;
            out.push_back({next.core, when, msg.sync});
        }
        break;
      }
      case MsgType::BarArrive: {
        SLACKSIM_ASSERT(msg.sync < barriers_.size(),
                        "barrier id out of range: ", msg.sync);
        BarrierState &bar = barriers_[msg.sync];
        const std::uint64_t bit = 1ull << msg.src;
        SLACKSIM_ASSERT((bar.arrivedMask & bit) == 0,
                        "core ", msg.src, " arrives twice at barrier ",
                        msg.sync);
        bar.arrivedMask |= bit;
        ++bar.arrivedCount;
        bar.maxArrivalTs = std::max(bar.maxArrivalTs, msg.ts);
        if (bar.arrivedCount == participants_) {
            const Tick when = bar.maxArrivalTs + grantLatency_;
            for (CoreId c = 0; c < 64; ++c) {
                if (bar.arrivedMask & (1ull << c))
                    out.push_back({c, when, msg.sync});
            }
            bar = BarrierState{};
            ++stats_->barrierEpisodes;
        }
        break;
      }
      default:
        SLACKSIM_PANIC("SyncArbiter got non-sync message ",
                       msgTypeName(msg.type));
    }
}

bool
SyncArbiter::lockHeld(SyncId id) const
{
    SLACKSIM_ASSERT(id < locks_.size(), "bad lock id");
    return locks_[id].held;
}

CoreId
SyncArbiter::lockHolder(SyncId id) const
{
    SLACKSIM_ASSERT(id < locks_.size(), "bad lock id");
    return locks_[id].holder;
}

std::size_t
SyncArbiter::lockQueueDepth(SyncId id) const
{
    SLACKSIM_ASSERT(id < locks_.size(), "bad lock id");
    return locks_[id].waitQueue.size();
}

std::uint32_t
SyncArbiter::barrierArrivals(SyncId id) const
{
    SLACKSIM_ASSERT(id < barriers_.size(), "bad barrier id");
    return barriers_[id].arrivedCount;
}

void
SyncArbiter::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x5abc);
    writer.put<std::uint64_t>(locks_.size());
    for (const auto &lock : locks_) {
        writer.put(lock.held);
        writer.put(lock.holder);
        writer.putVector(lock.waitQueue);
    }
    writer.putVector(barriers_);
}

void
SyncArbiter::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x5abc);
    const auto count = reader.get<std::uint64_t>();
    SLACKSIM_ASSERT(count == locks_.size(),
                    "sync snapshot geometry mismatch");
    for (auto &lock : locks_) {
        lock.held = reader.get<bool>();
        lock.holder = reader.get<CoreId>();
        lock.waitQueue = reader.getVector<Waiter>();
    }
    barriers_ = reader.getVector<BarrierState>();
}

} // namespace slacksim
