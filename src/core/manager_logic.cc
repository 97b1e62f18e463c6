/**
 * @file
 * ManagerLogic implementation.
 */

#include "core/manager_logic.hh"

#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {

ManagerLogic::ManagerLogic(SimSystem &sys, const EngineConfig &engine,
                           HostStats *host)
    : sys_(sys),
      engine_(engine),
      host_(host),
      staging_(sys.numCores()),
      merge_(sys.numCores(), HeadLess{&staging_}),
      delivered_(sys.numCores()),
      overflow_(sys.numCores())
{
    SLACKSIM_ASSERT(host_ != nullptr, "ManagerLogic needs host stats");
    outboundScratch_.reserve(64);
    pumpScratch_.reserve(128);
}

std::size_t
ManagerLogic::pumpCore(CoreId c)
{
    auto &q = sys_.core(c).outQ();
    if (sorted_) {
        // Epoch-batched staging: pop whole chunks off the SPSC queue
        // and append them to the per-source runs, deferring each
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
    auto &run = staging_[msg.src];
    // The whole merge rests on per-source runs being sorted: cores
    // stamp ts from their nondecreasing local clock, so arrival order
    // within one source *is* (ts, seq) order.
    SLACKSIM_ASSERT(run.empty() || run.back().ts <= msg.ts,
                    "per-source timestamp order violated");
    const bool wasEmpty = run.empty();
    run.push_back(msg);
    ++stagedCount_;
    // A push onto a non-empty run leaves its head — and therefore
    // every tournament match — unchanged: O(1).
    if (wasEmpty)
        merge_.update(msg.src);
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
        const std::uint32_t src = merge_.winner();
        auto &run = staging_[src];
        if (run.front().ts >= safe_time)
            break;
        const BusMsg msg = run.front();
        run.pop_front();
        --stagedCount_;
        merge_.update(src);
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
    if (!ov.empty() || !sys_.core(o.dst).inQ().push(o.msg)) {
        ov.push_back(o.msg);
        ++overflowCount_;
    } else {
        markDelivered(o.dst);
    }
}

void
ManagerLogic::flushOverflow()
{
    if (overflowCount_ == 0)
        return;
    for (CoreId c = 0; c < sys_.numCores(); ++c) {
        auto &ov = overflow_[c];
        auto &q = sys_.core(c).inQ();
        while (!ov.empty() && q.push(ov.front())) {
            ov.pop_front();
            --overflowCount_;
            markDelivered(c);
        }
    }
}

Tick
ManagerLogic::earliestStaged() const
{
    return stagedCount_ == 0 ? maxTick
                             : staging_[merge_.winner()].front().ts;
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
    // One run per source, in arrival order.
    writer.put<std::uint64_t>(staging_.size());
    for (const auto &run : staging_) {
        writer.put<std::uint64_t>(run.size());
        for (const auto &msg : run)
            writer.put(msg);
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
    SLACKSIM_ASSERT(runs == staging_.size(),
                    "manager snapshot geometry mismatch");
    stagedCount_ = 0;
    for (auto &run : staging_) {
        run.clear();
        const auto n = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i)
            run.push_back(reader.get<BusMsg>());
        stagedCount_ += n;
    }
    merge_.rebuild();
    const auto cores = reader.get<std::uint64_t>();
    SLACKSIM_ASSERT(cores == overflow_.size(),
                    "manager snapshot geometry mismatch");
    overflowCount_ = 0;
    for (auto &ov : overflow_) {
        ov.clear();
        const auto n = reader.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i)
            ov.push_back(reader.get<BusMsg>());
        overflowCount_ += n;
    }
}

} // namespace slacksim
