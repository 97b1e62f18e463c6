/**
 * @file
 * OooCore implementation. Stage order within one cycle: writeback,
 * commit, store-buffer drain, head-of-ROB sync handling, issue, fetch.
 */

#include "cpu/ooo_core.hh"

#include <bit>

#include "util/logging.hh"

namespace slacksim {

namespace {

/** Sync ids fit 16 bits in a validated workload. */
std::uint16_t
syncId(TraceInstr instr)
{
    return static_cast<std::uint16_t>(instr.sync());
}

} // namespace

OooCore::OooCore(const CoreParams &params, CoreId id,
                 const TraceProgram *trace, L1Cache *l1d, L1Cache *l1i,
                 CoreStats *stats, Addr code_base)
    : params_(params),
      id_(id),
      trace_(trace),
      l1d_(l1d),
      l1i_(l1i),
      stats_(stats),
      codeBase_(code_base),
      rob_(params.robSize),
      robMask_(params.robSize - 1),
      sbMask_(params.sbSize - 1),
      pending_(params.robSize),
      sb_(params.sbSize)
{
    SLACKSIM_ASSERT(trace_ && l1d_ && l1i_ && stats_,
                    "OooCore missing a collaborator");
    SLACKSIM_ASSERT(params_.robSize >= 4 && params_.sbSize >= 1,
                    "degenerate core geometry");
    // One issue-mask bit per ROB slot; slots are indexed by mask.
    SLACKSIM_ASSERT(params_.robSize <= 64 &&
                        std::has_single_bit(params_.robSize) &&
                        std::has_single_bit(params_.sbSize),
                    "ROB (<= 64) and store-buffer sizes must be powers "
                    "of two");
    SLACKSIM_ASSERT(!trace_->instrs.empty(), "empty trace program");
}

bool
OooCore::cycle(Tick now, std::vector<BusMsg> &out)
{
    if (finished_)
        return false;
    const std::size_t out0 = out.size();
    const Fingerprint before = fingerprint();
    writeback(now);
    commit(now);
    drainStoreBuffer(now, out);
    handleHeadSync(now, out);
    issue(now, out);
    fetch(now, out);
    updateFinished();
    return out.size() != out0 || !(fingerprint() == before) ||
           finished_;
}

OooCore::Fingerprint
OooCore::fingerprint() const
{
    Fingerprint f;
    f.headSeq = headSeq_;
    f.tailSeq = tailSeq_;
    f.sbHead = sbHead_;
    f.sbTail = sbTail_;
    f.traceIndex = traceIndex_;
    f.issuedCount = issuedCount_;
    f.doneCount = doneCount_;
    f.intraOffset = intraOffset_;
    f.flags = static_cast<std::uint8_t>(
        fetchWaitingFill_ | (sbWaitingFill_ << 1) | (syncSent_ << 2) |
        (syncGranted_ << 3) | (finished_ << 4));
    return f;
}

void
OooCore::pushPending(Tick done_at, SeqNum seq)
{
    // Shift later completions back one slot until the new one fits.
    std::uint64_t i = pendingTail_++;
    for (; i != pendingHead_; --i) {
        const auto &prev = pending_[(i - 1) & robMask_];
        if (prev.first <= done_at)
            break;
        pending_[i & robMask_] = prev;
    }
    pending_[i & robMask_] = {done_at, seq};
}

void
OooCore::rebuildDerived()
{
    unissued_ = 0;
    pendingHead_ = pendingTail_ = 0;
    for (SeqNum s = headSeq_; s != tailSeq_; ++s) {
        const RobEntry &e = slot(s);
        if (!e.issued)
            unissued_ |= std::uint64_t{1} << (s & robMask_);
        else if (!e.done && !e.waitingFill && e.doneAt != maxTick)
            pushPending(e.doneAt, e.seq);
    }
    codeOffset_ = (pcCursor_ * 4) % trace_->codeFootprint;
}

void
OooCore::writeback(Tick now)
{
    while (pendingHead_ != pendingTail_ &&
           pending_[pendingHead_ & robMask_].first <= now) {
        const SeqNum seq = pending_[pendingHead_++ & robMask_].second;
        RobEntry &e = slot(seq);
        SLACKSIM_ASSERT(e.seq == seq && e.issued && !e.done &&
                            !e.waitingFill,
                        "stale completion-ring entry");
        e.done = 1;
        ++doneCount_;
    }
}

void
OooCore::commit(Tick)
{
    for (std::uint32_t n = 0; n < params_.commitWidth; ++n) {
        if (robEmpty())
            return;
        RobEntry &e = slot(headSeq_);
        if (!e.done)
            return;
        if (e.kind == UopKind::Store) {
            if (sbFull()) {
                ++stats_->sbFullCycles;
                return;
            }
            sb_[sbTail_ & sbMask_].addr = e.addr;
            ++sbTail_;
            ++stats_->committedStores;
        } else if (e.kind == UopKind::Load) {
            ++stats_->committedLoads;
        } else if (e.kind != UopKind::Alu) {
            ++stats_->committedSyncOps;
        }
        ++stats_->committedInstrs;
        ++headSeq_;
    }
}

void
OooCore::drainStoreBuffer(Tick now, std::vector<BusMsg> &out)
{
    if (sbEmpty() || sbWaitingFill_)
        return;
    const Addr addr = sb_[sbHead_ & sbMask_].addr;
    switch (l1d_->accessStore(addr, now, out)) {
      case L1Result::Hit:
        ++sbHead_;
        break;
      case L1Result::Miss:
        sbWaitingFill_ = 1;
        break;
      case L1Result::Merged:
      case L1Result::Blocked:
        // A request for the line is already in flight, or no MSHR is
        // free: retry next cycle.
        break;
    }
}

void
OooCore::handleHeadSync(Tick now, std::vector<BusMsg> &out)
{
    if (robEmpty())
        return;
    RobEntry &e = slot(headSeq_);
    if (e.kind != UopKind::Lock && e.kind != UopKind::Unlock &&
        e.kind != UopKind::Barrier) {
        return;
    }
    if (e.done)
        return;
    // Sync operations act as memory fences: all older stores must be
    // globally visible (drained) first.
    if (!sbEmpty()) {
        ++stats_->syncStallCycles;
        return;
    }
    if (!syncSent_) {
        BusMsg msg;
        msg.type = e.kind == UopKind::Lock
                       ? MsgType::LockAcq
                       : (e.kind == UopKind::Unlock ? MsgType::LockRel
                                                    : MsgType::BarArrive);
        msg.src = id_;
        msg.sync = e.sync;
        msg.ts = now;
        msg.seq = nextMsgSeq_++;
        out.push_back(msg);
        syncSent_ = 1;
        if (e.kind == UopKind::Unlock) {
            // Releases complete without waiting for a response.
            e.done = 1;
            ++doneCount_;
            syncSent_ = 0;
            return;
        }
    }
    if (syncGranted_) {
        e.done = 1;
        ++doneCount_;
        syncSent_ = 0;
        syncGranted_ = 0;
    } else {
        ++stats_->syncStallCycles;
    }
}

void
OooCore::issue(Tick now, std::vector<BusMsg> &out)
{
    std::uint32_t issued = 0;
    std::uint32_t load_ports = params_.loadPorts;
    // Rotating the mask right by the head's slot puts the unissued
    // slots in program order: those at or above the head first, then
    // (in the top bits) those the ring wrapped below it.
    const auto head = static_cast<int>(headSeq_ & robMask_);
    for (std::uint64_t order = std::rotr(unissued_, head); order != 0;
         order &= order - 1) {
        if (issued >= params_.issueWidth)
            return;
        const auto index = static_cast<std::uint16_t>(
            (head + std::countr_zero(order)) & 63);
        RobEntry &e = rob_[index];
        switch (e.kind) {
          case UopKind::Alu: {
            if (e.depSeq != 0 && e.depSeq >= headSeq_) {
                const RobEntry &dep = slot(e.depSeq);
                if (dep.seq == e.depSeq && !dep.done)
                    continue; // operand not ready yet
            }
            e.issued = 1;
            e.doneAt = now + params_.aluLatency;
            pushPending(e.doneAt, e.seq);
            ++issuedCount_;
            ++issued;
            break;
          }
          case UopKind::Load: {
            if (load_ports == 0)
                continue;
            L1Waiter waiter;
            waiter.kind = L1Waiter::Kind::LoadRob;
            waiter.index = index;
            switch (l1d_->accessLoad(e.addr, waiter, now, out)) {
              case L1Result::Hit:
                e.issued = 1;
                e.doneAt = now + l1d_->hitLatency();
                pushPending(e.doneAt, e.seq);
                ++issuedCount_;
                ++issued;
                --load_ports;
                break;
              case L1Result::Miss:
              case L1Result::Merged:
                // Completed by the fill path, not a timer: stays out
                // of the completion ring.
                e.issued = 1;
                e.waitingFill = 1;
                ++issuedCount_;
                ++issued;
                --load_ports;
                break;
              case L1Result::Blocked:
                break; // retry next cycle
            }
            break;
          }
          case UopKind::Store:
            // Address generation only; the memory access happens when
            // the store drains from the store buffer after commit.
            e.issued = 1;
            e.doneAt = now + 1;
            pushPending(e.doneAt, e.seq);
            ++issuedCount_;
            ++issued;
            break;
          case UopKind::Lock:
          case UopKind::Unlock:
          case UopKind::Barrier:
            // Handled at the head of the ROB; mark issued so the
            // scheduler skips them, and park doneAt at infinity so
            // writeback() never completes them — only the sync grant
            // path may. Infinite doneAt also keeps them out of the
            // completion ring.
            e.issued = 1;
            e.doneAt = maxTick;
            ++issuedCount_;
            break;
        }
        if (e.issued)
            unissued_ &= ~(std::uint64_t{1} << index);
    }
}

void
OooCore::fetch(Tick now, std::vector<BusMsg> &out)
{
    if (fetchWaitingFill_) {
        ++stats_->fetchStallCycles;
        return;
    }
    if (traceIndex_ >= trace_->instrs.size())
        return;
    if (trace_->instrs[traceIndex_].op() == TraceOp::End)
        return;

    // One instruction-cache probe per cycle for the current fetch
    // group's line.
    const Addr pc = codeBase_ + codeOffset_;
    switch (l1i_->accessFetch(pc, now, out)) {
      case L1Result::Hit:
        break;
      case L1Result::Miss:
      case L1Result::Merged:
        fetchWaitingFill_ = 1;
        ++stats_->fetchStallCycles;
        return;
      case L1Result::Blocked:
        ++stats_->fetchStallCycles;
        return;
    }

    const Addr line = l1i_->lineAddr(pc);
    for (std::uint32_t n = 0; n < params_.fetchWidth; ++n) {
        if (robFull()) {
            ++stats_->robFullCycles;
            return;
        }
        // Stay within the fetched line.
        const Addr cur_pc = codeBase_ + codeOffset_;
        if (l1i_->lineAddr(cur_pc) != line && n > 0)
            return;
        if (traceIndex_ >= trace_->instrs.size())
            return;
        const TraceInstr instr = trace_->instrs[traceIndex_];
        bool advanced = false;
        switch (instr.op()) {
          case TraceOp::End:
            return;
          case TraceOp::Compute: {
            SeqNum dep = 0;
            if (intraOffset_ == 0 && instr.dependsOnLoad())
                dep = lastLoadSeq_;
            advanced = dispatchUop(UopKind::Alu, 0, 0, dep);
            if (advanced) {
                if (++intraOffset_ >= instr.count()) {
                    intraOffset_ = 0;
                    ++traceIndex_;
                }
            }
            break;
          }
          case TraceOp::Load:
            advanced = dispatchUop(UopKind::Load, instr.addr(), 0, 0);
            if (advanced) {
                lastLoadSeq_ = tailSeq_ - 1;
                ++traceIndex_;
            }
            break;
          case TraceOp::Store:
            advanced = dispatchUop(UopKind::Store, instr.addr(), 0, 0);
            if (advanced)
                ++traceIndex_;
            break;
          case TraceOp::Lock:
            advanced = dispatchUop(UopKind::Lock, 0, syncId(instr), 0);
            if (advanced)
                ++traceIndex_;
            break;
          case TraceOp::Unlock:
            advanced = dispatchUop(UopKind::Unlock, 0, syncId(instr), 0);
            if (advanced)
                ++traceIndex_;
            break;
          case TraceOp::Barrier:
            advanced = dispatchUop(UopKind::Barrier, 0, syncId(instr), 0);
            if (advanced)
                ++traceIndex_;
            break;
        }
        if (!advanced)
            return;
        ++pcCursor_;
        codeOffset_ += 4;
        if (codeOffset_ >= trace_->codeFootprint)
            codeOffset_ %= trace_->codeFootprint;
    }
}

bool
OooCore::dispatchUop(UopKind kind, Addr addr, std::uint16_t sync,
                     SeqNum dep_seq)
{
    if (robFull())
        return false;
    RobEntry &e = slot(tailSeq_);
    e = RobEntry{};
    e.kind = kind;
    e.addr = addr;
    e.sync = sync;
    e.seq = tailSeq_;
    e.depSeq = dep_seq;
    unissued_ |= std::uint64_t{1} << (tailSeq_ & robMask_);
    ++tailSeq_;
    return true;
}

void
OooCore::updateFinished()
{
    if (finished_)
        return;
    const bool trace_done =
        traceIndex_ < trace_->instrs.size() &&
        trace_->instrs[traceIndex_].op() == TraceOp::End;
    if (trace_done && robEmpty() && sbEmpty())
        finished_ = 1;
}

void
OooCore::handleInbound(const BusMsg &msg, Tick now,
                       std::vector<BusMsg> &out)
{
    switch (msg.type) {
      case MsgType::Fill:
      case MsgType::UpgradeAck: {
        L1Cache *cache =
            msg.cache == CacheKind::Instr ? l1i_ : l1d_;
        fillWaiters_.clear();
        cache->applyFill(msg, now, out, fillWaiters_);
        for (const L1Waiter &w : fillWaiters_) {
            switch (w.kind) {
              case L1Waiter::Kind::LoadRob: {
                RobEntry &e = rob_[w.index];
                if (e.kind == UopKind::Load && e.waitingFill &&
                    e.seq >= headSeq_ && e.seq < tailSeq_) {
                    e.waitingFill = 0;
                    e.done = 1;
                    ++doneCount_;
                }
                break;
              }
              case L1Waiter::Kind::StoreBuffer: {
                sbWaitingFill_ = 0;
                // Perform the blocked store immediately: the miss was
                // initiated for this store, and in a real lockup-free
                // cache its data merges with the arriving line before
                // any later snoop can intervene. Without this, two
                // cores fighting over a line can invalidate each
                // other's fills forever (store livelock).
                if (!sbEmpty()) {
                    const Addr a = sb_[sbHead_ & sbMask_].addr;
                    if (l1d_->lineAddr(a) == msg.addr &&
                        l1d_->accessStore(a, now, out) ==
                            L1Result::Hit) {
                        ++sbHead_;
                    }
                }
                break;
              }
              case L1Waiter::Kind::Frontend:
                fetchWaitingFill_ = 0;
                break;
            }
        }
        break;
      }
      case MsgType::SnoopInv:
      case MsgType::SnoopDown: {
        L1Cache *cache =
            msg.cache == CacheKind::Instr ? l1i_ : l1d_;
        cache->applySnoop(msg);
        break;
      }
      case MsgType::SyncGrant:
        syncGranted_ = 1;
        break;
      default:
        SLACKSIM_PANIC("core ", id_, " received unexpected message ",
                       msgTypeName(msg.type));
    }
}

void
OooCore::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xc04e);
    writer.putVector(rob_);
    writer.put(headSeq_);
    writer.put(tailSeq_);
    writer.putVector(sb_);
    writer.put(sbHead_);
    writer.put(sbTail_);
    writer.put(sbWaitingFill_);
    writer.put(traceIndex_);
    writer.put(intraOffset_);
    writer.put(pcCursor_);
    writer.put(fetchWaitingFill_);
    writer.put(lastLoadSeq_);
    writer.put(syncSent_);
    writer.put(syncGranted_);
    writer.put(finished_);
    writer.put(nextMsgSeq_);
    writer.put(issuedCount_);
    writer.put(doneCount_);
    writer.put(*stats_);
}

void
OooCore::restore(SnapshotReader &reader)
{
    reader.checkMarker(0xc04e);
    rob_ = reader.getVector<RobEntry>();
    headSeq_ = reader.get<SeqNum>();
    tailSeq_ = reader.get<SeqNum>();
    sb_ = reader.getVector<SbEntry>();
    sbHead_ = reader.get<std::uint64_t>();
    sbTail_ = reader.get<std::uint64_t>();
    sbWaitingFill_ = reader.get<std::uint8_t>();
    traceIndex_ = reader.get<std::uint64_t>();
    intraOffset_ = reader.get<std::uint32_t>();
    pcCursor_ = reader.get<std::uint64_t>();
    fetchWaitingFill_ = reader.get<std::uint8_t>();
    lastLoadSeq_ = reader.get<SeqNum>();
    syncSent_ = reader.get<std::uint8_t>();
    syncGranted_ = reader.get<std::uint8_t>();
    finished_ = reader.get<std::uint8_t>();
    nextMsgSeq_ = reader.get<SeqNum>();
    issuedCount_ = reader.get<std::uint64_t>();
    doneCount_ = reader.get<std::uint64_t>();
    *stats_ = reader.get<CoreStats>();
    SLACKSIM_ASSERT(rob_.size() == params_.robSize &&
                        sb_.size() == params_.sbSize,
                    "core snapshot geometry mismatch");
    // Derived accelerator state: rebuild rather than serialize.
    rebuildDerived();
}

} // namespace slacksim
