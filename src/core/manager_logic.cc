/**
 * @file
 * ManagerLogic implementation.
 */

#include "core/manager_logic.hh"

#include <algorithm>

#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {

ManagerLogic::ManagerLogic(SimSystem &sys, const EngineConfig &engine,
                           HostStats *host)
    : sys_(sys),
      engine_(engine),
      host_(host),
      banks_(std::max<std::uint32_t>(1, engine.managerBanks)),
      staging_(static_cast<std::size_t>(banks_) * sys.numCores()),
      bankCount_(banks_, 0),
      delivered_(sys.numCores()),
      overflow_(sys.numCores())
{
    SLACKSIM_ASSERT(host_ != nullptr, "ManagerLogic needs host stats");
    merge_.reserve(banks_);
    for (std::uint32_t b = 0; b < banks_; ++b) {
        merge_.emplace_back(sys_.numCores(),
                            HeadLess{&staging_, b * sys_.numCores()});
    }
    outboundScratch_.reserve(64);
    pumpScratch_.reserve(128);
}

std::size_t
ManagerLogic::pumpCore(CoreId c)
{
    auto &q = sys_.core(c).outQ();
    if (sorted_) {
        // Epoch-batched staging: pop whole chunks off the SPSC queue
        // and append them to the per-(bank, src) runs, deferring each
        // tree replay to the point a run actually turns non-empty —
        // appends onto a non-empty run leave every tournament match
        // unchanged, so a chunk costs O(n) appends plus one O(log C)
        // path per run the chunk revived.
        std::size_t pulled = 0;
        for (;;) {
            pumpScratch_.resize(128);
            const std::size_t n =
                q.popN(pumpScratch_.data(), pumpScratch_.size());
            if (n == 0)
                break;
            pulled += n;
            for (std::size_t i = 0; i < n; ++i)
                stash(pumpScratch_[i]);
            if (n < pumpScratch_.size())
                break;
        }
        return pulled;
    }
    // serviceOne() delivers responses into InQs (possibly overflowing
    // to the side deques), never into any OutQ, so draining in one
    // batch is safe here too.
    return q.consumeAll([this](const BusMsg &msg) { serviceOne(msg); });
}

std::size_t
ManagerLogic::pumpAll()
{
    std::size_t pulled = 0;
    for (CoreId c = 0; c < sys_.numCores(); ++c)
        pulled += pumpCore(c);
    return pulled;
}

void
ManagerLogic::stash(const BusMsg &msg)
{
    SLACKSIM_ASSERT(msg.src < sys_.numCores(), "stash: bad source");
    const std::uint32_t b = bankOf(msg.addr);
    auto &run = staging_[static_cast<std::size_t>(b) *
                             sys_.numCores() +
                         msg.src];
    // The whole merge rests on per-source runs being sorted: cores
    // stamp ts from their nondecreasing local clock, so arrival order
    // within one source *is* (ts, seq) order — and any per-bank
    // subsequence of a monotone stream is monotone.
    SLACKSIM_ASSERT(run.empty() || run.back().ts <= msg.ts,
                    "per-source timestamp order violated");
    const bool wasEmpty = run.empty();
    run.push_back(msg);
    ++stagedCount_;
    ++bankCount_[b];
    // A push onto a non-empty run leaves its head — and therefore
    // every tournament match — unchanged: O(1).
    if (wasEmpty)
        merge_[b].update(msg.src);
}

std::size_t
ManagerLogic::serviceSorted(Tick safe_time)
{
    // Uncore event simulation: nested under the engine's drain scope,
    // so the flamegraph separates merge/service work ("drain;
    // simulate") from raw queue pumping. Per call, not per event —
    // one TSC pair amortized over the whole safe-time batch.
    obs::Scope simulate(obs::Phase::Simulate);
    std::size_t serviced = 0;
    while (stagedCount_ != 0) {
        // Top-level tournament over the bank heads: each bank's tree
        // yields its least (ts, src) head, and across banks the full
        // (ts, src, seq) key decides — two banks can hold the same
        // source at the same timestamp, where seq (the per-source
        // emission counter) restores the original arrival order.
        std::uint32_t win_bank = banks_;
        const BusMsg *win = nullptr;
        for (std::uint32_t b = 0; b < banks_; ++b) {
            if (bankCount_[b] == 0)
                continue;
            const auto &head =
                staging_[static_cast<std::size_t>(b) *
                             sys_.numCores() +
                         merge_[b].winner()]
                    .front();
            if (!win || head.ts < win->ts ||
                (head.ts == win->ts &&
                 (head.src < win->src ||
                  (head.src == win->src && head.seq < win->seq)))) {
                win = &head;
                win_bank = b;
            }
        }
        if (win->ts >= safe_time)
            break;
        const BusMsg msg = *win;
        auto &run = staging_[static_cast<std::size_t>(win_bank) *
                                 sys_.numCores() +
                             msg.src];
        run.pop_front();
        --stagedCount_;
        --bankCount_[win_bank];
        merge_[win_bank].update(msg.src);
        serviceOne(msg);
        ++serviced;
    }
    return serviced;
}

void
ManagerLogic::serviceOne(const BusMsg &msg)
{
    outboundScratch_.clear();
    const ServiceResult r = sys_.uncore().service(msg, outboundScratch_);
    if (r.any() && sys_.uncore().violationCounting()) {
        // Interval records and rollback triggers follow the *tracked*
        // violation classes (the paper: "users may want to overlook
        // some types of violations").
        const bool tracked =
            (r.busViolation && engine_.checkpoint.rollbackOnBus) ||
            (r.mapViolation && engine_.checkpoint.rollbackOnMap);
        if (tracked && intervalOpen_) {
            ++current_.violations;
            if (current_.firstViolationOffset == maxTick) {
                current_.firstViolationOffset =
                    msg.ts >= current_.start ? msg.ts - current_.start
                                             : 0;
            }
        }
        if (tracked && rollbackArmed_)
            rollbackRequested_ = true;
    }
    for (const Outbound &o : outboundScratch_)
        deliver(o);
}

void
ManagerLogic::markDelivered(CoreId c)
{
    delivered_.set(c);
}

void
ManagerLogic::deliver(const Outbound &o)
{
    SLACKSIM_ASSERT(o.dst < sys_.numCores(), "bad delivery target");
    auto &ov = overflow_[o.dst];
    if (!ov.empty() || !sys_.core(o.dst).inQ().push(o.msg))
        ov.push_back(o.msg);
    else
        markDelivered(o.dst);
}

void
ManagerLogic::flushOverflow()
{
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        auto &ov = overflow_[c];
        auto &q = sys_.core(c).inQ();
        while (!ov.empty() && q.push(ov.front())) {
            ov.pop_front();
            markDelivered(c);
        }
    }
}

bool
ManagerLogic::drained() const
{
    return stagedCount_ == 0 && !overflowPending();
}

Tick
ManagerLogic::earliestStaged() const
{
    Tick earliest = maxTick;
    for (std::uint32_t b = 0; b < banks_; ++b) {
        if (bankCount_[b] == 0)
            continue;
        earliest = std::min(
            earliest, staging_[static_cast<std::size_t>(b) *
                                   sys_.numCores() +
                               merge_[b].winner()]
                          .front()
                          .ts);
    }
    return earliest;
}

bool
ManagerLogic::overflowPending() const
{
    for (const auto &ov : overflow_)
        if (!ov.empty())
            return true;
    return false;
}

void
ManagerLogic::beginInterval(Tick start)
{
    SLACKSIM_ASSERT(!intervalOpen_, "interval already open");
    current_ = IntervalRecord{};
    current_.start = start;
    intervalOpen_ = true;
}

void
ManagerLogic::closeInterval()
{
    if (!intervalOpen_)
        return;
    intervals_.push_back(current_);
    intervalOpen_ = false;
}

void
ManagerLogic::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x3147);
    // Serialize per *source*, with each source's banks merged back
    // into arrival (seq) order: the snapshot layout — and therefore
    // every checkpoint byte — is identical for every bank count.
    writer.put<std::uint64_t>(sys_.numCores());
    std::vector<std::size_t> cursor(banks_);
    for (CoreId src = 0; src < sys_.numCores(); ++src) {
        std::uint64_t total = 0;
        for (std::uint32_t b = 0; b < banks_; ++b) {
            cursor[b] = 0;
            total += staging_[static_cast<std::size_t>(b) *
                                  sys_.numCores() +
                              src]
                         .size();
        }
        writer.put<std::uint64_t>(total);
        for (std::uint64_t i = 0; i < total; ++i) {
            // seq is the per-source emission counter: unique within
            // a source, so the minimum over bank heads reconstructs
            // the exact arrival order the banks partitioned.
            const BusMsg *next = nullptr;
            std::uint32_t next_bank = 0;
            for (std::uint32_t b = 0; b < banks_; ++b) {
                const auto &run =
                    staging_[static_cast<std::size_t>(b) *
                                 sys_.numCores() +
                             src];
                if (cursor[b] >= run.size())
                    continue;
                const BusMsg &head = run[cursor[b]];
                if (!next || head.seq < next->seq) {
                    next = &head;
                    next_bank = b;
                }
            }
            writer.put(*next);
            ++cursor[next_bank];
        }
    }
    writer.put<std::uint64_t>(overflow_.size());
    for (const auto &ov : overflow_) {
        writer.put<std::uint64_t>(ov.size());
        for (const auto &msg : ov)
            writer.put(msg);
    }
}

void
ManagerLogic::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x3147);
    const auto runs = reader.get<std::uint64_t>();
    SLACKSIM_ASSERT(runs == sys_.numCores(),
                    "manager snapshot geometry mismatch");
    stagedCount_ = 0;
    for (auto &run : staging_)
        run.clear();
    std::fill(bankCount_.begin(), bankCount_.end(), 0);
    for (CoreId src = 0; src < sys_.numCores(); ++src) {
        const auto n = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            const BusMsg msg = reader.get<BusMsg>();
            const std::uint32_t b = bankOf(msg.addr);
            staging_[static_cast<std::size_t>(b) * sys_.numCores() +
                     src]
                .push_back(msg);
            ++stagedCount_;
            ++bankCount_[b];
        }
    }
    for (auto &tree : merge_)
        tree.rebuild();
    const auto cores = reader.get<std::uint64_t>();
    SLACKSIM_ASSERT(cores == overflow_.size(),
                    "manager snapshot geometry mismatch");
    for (auto &ov : overflow_) {
        ov.clear();
        const auto n = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i)
            ov.push_back(reader.get<BusMsg>());
    }
}

} // namespace slacksim
