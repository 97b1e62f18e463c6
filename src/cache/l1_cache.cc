/**
 * @file
 * L1Cache implementation.
 */

#include "cache/l1_cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace slacksim {

L1Cache::L1Cache(const L1Params &params, CoreId owner, CoreStats *stats)
    : params_(params),
      lineShift_(static_cast<std::uint32_t>(
          std::countr_zero(params.lineBytes))),
      owner_(owner),
      stats_(stats),
      lines_(static_cast<std::size_t>(params.sets) * params.ways),
      mshrs_(params.mshrs)
{
    SLACKSIM_ASSERT(std::has_single_bit(params_.sets),
                    "L1 sets must be a power of 2");
    SLACKSIM_ASSERT(std::has_single_bit(params_.lineBytes),
                    "L1 line size must be a power of 2");
    SLACKSIM_ASSERT(params_.ways >= 1 && params_.mshrs >= 1,
                    "L1 needs at least one way and one MSHR");
    SLACKSIM_ASSERT(stats_ != nullptr, "L1 needs a stats sink");
}

std::uint32_t
L1Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::uint32_t>(
        (line_addr >> lineShift_) & (params_.sets - 1));
}

L1Cache::Line *
L1Cache::findLine(Addr line_addr)
{
    Line *base = &lines_[static_cast<std::size_t>(setIndex(line_addr)) *
                         params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (base[w].state != MesiState::Invalid &&
            base[w].tag == line_addr) {
            return &base[w];
        }
    }
    return nullptr;
}

const L1Cache::Line *
L1Cache::findLine(Addr line_addr) const
{
    return const_cast<L1Cache *>(this)->findLine(line_addr);
}

L1Cache::Mshr *
L1Cache::findMshr(Addr line_addr)
{
    for (auto &mshr : mshrs_)
        if (mshr.valid && mshr.line == line_addr)
            return &mshr;
    return nullptr;
}

L1Cache::Mshr *
L1Cache::allocMshr(Addr line_addr, MsgType request)
{
    for (auto &mshr : mshrs_) {
        if (!mshr.valid) {
            mshr.valid = true;
            mshr.line = line_addr;
            mshr.request = request;
            mshr.numWaiters = 0;
            return &mshr;
        }
    }
    return nullptr;
}

bool
L1Cache::addWaiter(Mshr &mshr, const L1Waiter &waiter)
{
    if (mshr.numWaiters >= sizeof(mshr.waiters) / sizeof(mshr.waiters[0]))
        return false;
    mshr.waiters[mshr.numWaiters++] = waiter;
    return true;
}

void
L1Cache::touchLru(Line &line)
{
    line.lruStamp = ++lruClock_;
}

L1Cache::Line &
L1Cache::installLine(Addr line_addr, MesiState state, Tick now,
                     std::vector<BusMsg> &out)
{
    Line *base = &lines_[static_cast<std::size_t>(setIndex(line_addr)) *
                         params_.ways];
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = base[w];
        if (line.state == MesiState::Invalid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->state == MesiState::Modified) {
        // Dirty eviction: write the line back over the bus.
        BusMsg wb;
        wb.type = MsgType::PutM;
        wb.addr = victim->tag;
        wb.src = owner_;
        wb.cache = params_.instructionCache ? CacheKind::Instr
                                            : CacheKind::Data;
        wb.ts = now;
        wb.seq = nextSeq_++;
        out.push_back(wb);
        ++stats_->l1dWritebacks;
    }
    // Clean (S/E) victims are dropped silently, like a real snooping
    // L1: the manager's map keeps them as stale sharers, which is
    // conservative (extra invalidations, never missed ones).
    victim->tag = line_addr;
    victim->state = state;
    touchLru(*victim);
    return *victim;
}

L1Result
L1Cache::accessLoad(Addr addr, const L1Waiter &waiter, Tick now,
                    std::vector<BusMsg> &out)
{
    SLACKSIM_ASSERT(!params_.instructionCache,
                    "accessLoad on an instruction cache");
    const Addr line_addr = lineAddr(addr);
    if (Line *line = findLine(line_addr)) {
        touchLru(*line);
        ++stats_->l1dHits;
        return L1Result::Hit;
    }
    if (Mshr *mshr = findMshr(line_addr)) {
        // Loads can merge into any pending request for the line: the
        // fill provides readable data whether it is GetS or GetM.
        if (!addWaiter(*mshr, waiter))
            return L1Result::Blocked;
        ++stats_->l1dMshrMerges;
        return L1Result::Merged;
    }
    Mshr *mshr = allocMshr(line_addr, MsgType::GetS);
    if (!mshr) {
        ++stats_->l1dMshrFullEvents;
        return L1Result::Blocked;
    }
    if (!addWaiter(*mshr, waiter)) {
        mshr->valid = false;
        return L1Result::Blocked;
    }
    ++stats_->l1dMisses;
    BusMsg msg;
    msg.type = MsgType::GetS;
    msg.addr = line_addr;
    msg.src = owner_;
    msg.cache = CacheKind::Data;
    msg.ts = now;
    msg.seq = nextSeq_++;
    out.push_back(msg);
    return L1Result::Miss;
}

L1Result
L1Cache::accessStore(Addr addr, Tick now, std::vector<BusMsg> &out)
{
    SLACKSIM_ASSERT(!params_.instructionCache,
                    "accessStore on an instruction cache");
    const Addr line_addr = lineAddr(addr);
    Line *line = findLine(line_addr);
    if (line && canWrite(line->state)) {
        line->state = MesiState::Modified;
        touchLru(*line);
        ++stats_->l1dHits;
        return L1Result::Hit;
    }
    if (findMshr(line_addr)) {
        // An outstanding request for this line exists (a GetS issued
        // by an earlier load, or our own upgrade). The store buffer
        // retries after the fill lands.
        return L1Result::Blocked;
    }
    Mshr *mshr = nullptr;
    MsgType req;
    if (line && line->state == MesiState::Shared) {
        req = MsgType::Upgrade;
        ++stats_->l1dUpgrades;
    } else {
        req = MsgType::GetM;
        ++stats_->l1dMisses;
    }
    mshr = allocMshr(line_addr, req);
    if (!mshr) {
        ++stats_->l1dMshrFullEvents;
        return L1Result::Blocked;
    }
    L1Waiter waiter;
    waiter.kind = L1Waiter::Kind::StoreBuffer;
    addWaiter(*mshr, waiter);
    BusMsg msg;
    msg.type = req;
    msg.addr = line_addr;
    msg.src = owner_;
    msg.cache = CacheKind::Data;
    msg.ts = now;
    msg.seq = nextSeq_++;
    out.push_back(msg);
    return L1Result::Miss;
}

L1Result
L1Cache::accessFetch(Addr addr, Tick now, std::vector<BusMsg> &out)
{
    SLACKSIM_ASSERT(params_.instructionCache,
                    "accessFetch on a data cache");
    const Addr line_addr = lineAddr(addr);
    if (Line *line = findLine(line_addr)) {
        touchLru(*line);
        ++stats_->l1iHits;
        return L1Result::Hit;
    }
    if (Mshr *mshr = findMshr(line_addr)) {
        L1Waiter waiter;
        waiter.kind = L1Waiter::Kind::Frontend;
        if (!addWaiter(*mshr, waiter))
            return L1Result::Blocked;
        return L1Result::Merged;
    }
    Mshr *mshr = allocMshr(line_addr, MsgType::GetS);
    if (!mshr)
        return L1Result::Blocked;
    L1Waiter waiter;
    waiter.kind = L1Waiter::Kind::Frontend;
    addWaiter(*mshr, waiter);
    ++stats_->l1iMisses;
    BusMsg msg;
    msg.type = MsgType::GetS;
    msg.addr = line_addr;
    msg.src = owner_;
    msg.cache = CacheKind::Instr;
    msg.ts = now;
    msg.seq = nextSeq_++;
    out.push_back(msg);
    return L1Result::Miss;
}

void
L1Cache::applyFill(const BusMsg &msg, Tick now, std::vector<BusMsg> &out,
                   std::vector<L1Waiter> &waiters)
{
    const Addr line_addr = msg.addr;
    Mshr *mshr = findMshr(line_addr);
    // Under slack-induced distortions a fill can arrive for a line
    // whose MSHR situation no longer matches; the simulation must
    // "survive violations naturally", so handle every case.
    const auto granted = static_cast<MesiState>(msg.grantState);
    if (msg.type == MsgType::UpgradeAck) {
        if (Line *line = findLine(line_addr)) {
            line->state = MesiState::Modified;
            touchLru(*line);
        } else {
            // The line was snooped away between the upgrade request
            // and the ack; reinstall it with ownership.
            installLine(line_addr, MesiState::Modified, now, out);
        }
    } else {
        if (Line *line = findLine(line_addr)) {
            // Already present (e.g. refetched after a snoop race):
            // adopt the stronger of the two states.
            if (static_cast<int>(granted) >
                static_cast<int>(line->state)) {
                line->state = granted;
            }
            touchLru(*line);
        } else {
            installLine(line_addr, granted, now, out);
        }
    }
    if (mshr) {
        for (std::uint8_t i = 0; i < mshr->numWaiters; ++i)
            waiters.push_back(mshr->waiters[i]);
        mshr->valid = false;
    }
}

void
L1Cache::applySnoop(const BusMsg &msg)
{
    Line *line = findLine(msg.addr);
    if (!line)
        return; // stale snoop (silent eviction beat it): no-op
    if (msg.type == MsgType::SnoopInv) {
        line->state = MesiState::Invalid;
        ++stats_->snoopInvalidations;
    } else if (msg.type == MsgType::SnoopDown) {
        if (canWrite(line->state) || line->state == MesiState::Shared) {
            // Dirty data travels back implicitly (the manager already
            // accounted the transfer); just lose write permission.
            line->state = MesiState::Shared;
            ++stats_->snoopDowngrades;
        }
    } else {
        SLACKSIM_PANIC("unexpected snoop type ",
                       static_cast<int>(msg.type));
    }
}

MesiState
L1Cache::probe(Addr addr) const
{
    const Line *line = findLine(lineAddr(addr));
    return line ? line->state : MesiState::Invalid;
}

std::uint32_t
L1Cache::mshrsInUse() const
{
    std::uint32_t n = 0;
    for (const auto &mshr : mshrs_)
        n += mshr.valid ? 1 : 0;
    return n;
}

bool
L1Cache::mshrPending(Addr addr) const
{
    return const_cast<L1Cache *>(this)->findMshr(lineAddr(addr)) !=
           nullptr;
}

void
L1Cache::checkInvariants() const
{
    for (std::uint32_t s = 0; s < params_.sets; ++s) {
        const Line *base =
            &lines_[static_cast<std::size_t>(s) * params_.ways];
        for (std::uint32_t i = 0; i < params_.ways; ++i) {
            if (base[i].state == MesiState::Invalid)
                continue;
            SLACKSIM_ASSERT(setIndex(base[i].tag) == s,
                            "line in wrong set");
            for (std::uint32_t j = i + 1; j < params_.ways; ++j) {
                SLACKSIM_ASSERT(base[j].state == MesiState::Invalid ||
                                    base[j].tag != base[i].tag,
                                "duplicate tag in set ", s);
            }
        }
    }
}

void
L1Cache::save(SnapshotWriter &writer) const
{
    writer.putMarker(0x4c31); // "L1"
    writer.putVector(lines_);
    writer.putVector(mshrs_);
    writer.put(lruClock_);
    writer.put(nextSeq_);
}

void
L1Cache::restore(SnapshotReader &reader)
{
    reader.checkMarker(0x4c31);
    lines_ = reader.getVector<Line>();
    mshrs_ = reader.getVector<Mshr>();
    lruClock_ = reader.get<std::uint32_t>();
    nextSeq_ = reader.get<SeqNum>();
    SLACKSIM_ASSERT(lines_.size() ==
                        static_cast<std::size_t>(params_.sets) *
                            params_.ways &&
                        mshrs_.size() == params_.mshrs,
                    "L1 snapshot geometry mismatch");
}

} // namespace slacksim
