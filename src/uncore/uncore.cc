/**
 * @file
 * Uncore implementation.
 */

#include "uncore/uncore.hh"

#include "cache/mesi.hh"

#include <algorithm>

#include "obs/forensics.hh"
#include "obs/recorder.hh"
#include "util/logging.hh"

namespace slacksim {

namespace {

Tick
lookaheadOf(const UncoreParams &p)
{
    // The request bus grants no earlier than ts + 1.
    const Tick snoop = 2;   // grant + 1
    const Tick upgrade = 3; // grant + 2
    const Tick fill = 1 +
                      std::min({p.l2.hitLatency, p.l2.missLatency,
                                p.c2cLatency}) +
                      p.busResponseCycles;
    return std::min({snoop, upgrade, fill, p.syncLatency});
}

} // namespace

Uncore::Uncore(const UncoreParams &params, UncoreStats *stats,
               ViolationStats *violations)
    : params_(params),
      lookahead_(lookaheadOf(params)),
      stats_(stats),
      violations_(violations),
      map_(params.l2.lineBytes),
      l2_(params.l2),
      sync_(params.numLocks, params.numBarriers, params.numCores,
            params.syncLatency, stats),
      bankFreeAt_(params.l2.banks, 0)
{
    SLACKSIM_ASSERT(stats_ && violations_, "Uncore missing stat sinks");
    SLACKSIM_ASSERT(params_.numCores >= 1 && params_.numCores <= 64,
                    "unsupported core count ", params_.numCores);
}

ServiceResult
Uncore::service(const BusMsg &msg, std::vector<Outbound> &out)
{
    const std::size_t first = out.size();
    ServiceResult result;
    if (isSyncRequest(msg.type)) {
        serviceSync(msg, out);
    } else {
        SLACKSIM_ASSERT(isBusRequest(msg.type),
                        "manager received non-request message ",
                        msgTypeName(msg.type));
        result = serviceBusRequest(msg, out);
    }
    // Sorted service paces cores by this bound: a delivery stamped
    // earlier could reach a core that already simulated past it.
    for (std::size_t i = first; i < out.size(); ++i) {
        SLACKSIM_ASSERT(out[i].msg.ts >= msg.ts + lookahead_,
                        msgTypeName(out[i].msg.type), " at ",
                        out[i].msg.ts, " for ", msgTypeName(msg.type),
                        " at ", msg.ts, " breaks lookahead ",
                        lookahead_);
    }
    return result;
}

void
Uncore::sendSnoop(CoreId dst, CacheKind cache, MsgType type, Addr line,
                  Tick ts, std::vector<Outbound> &out)
{
    Outbound o;
    o.dst = dst;
    o.msg.type = type;
    o.msg.addr = line;
    o.msg.cache = cache;
    o.msg.src = dst;
    o.msg.ts = ts;
    o.msg.seq = nextSeq_++;
    out.push_back(o);
    if (type == MsgType::SnoopInv)
        ++stats_->invalidationsSent;
    else if (type == MsgType::SnoopDown)
        ++stats_->downgradesSent;
}

void
Uncore::backInvalidate(Addr victim, Tick snoop_ts,
                       std::vector<Outbound> &out)
{
    MapEntry &e = map_.entry(victim);
    if (e.empty())
        return;
    for (CoreId c = 0; c < params_.numCores; ++c) {
        const std::uint64_t bit = 1ull << c;
        if (e.dSharers & bit)
            sendSnoop(c, CacheKind::Data, MsgType::SnoopInv, victim,
                      snoop_ts, out);
        if (e.iSharers & bit)
            sendSnoop(c, CacheKind::Instr, MsgType::SnoopInv, victim,
                      snoop_ts, out);
    }
    // A Modified L1 copy conceptually flushes to memory with the L2
    // victim; the map simply forgets all cached copies. The monitor
    // timestamp is retained for violation detection.
    e.dSharers = 0;
    e.iSharers = 0;
    e.owner = invalidCore;
    ++stats_->backInvalidations;
}

Tick
Uncore::accessL2(Addr line, Tick start, bool install_on_miss,
                 std::vector<Outbound> &out, Tick snoop_ts)
{
    const std::uint32_t bank = l2_.bank(line);
    const Tick t0 = std::max(start, bankFreeAt_[bank]);
    bankFreeAt_[bank] = t0 + params_.l2.hitLatency;
    if (l2_.lookup(line)) {
        ++stats_->l2Hits;
        return t0 + params_.l2.hitLatency;
    }
    ++stats_->l2Misses;
    if (install_on_miss) {
        const L2FillResult fill = l2_.fill(line, false);
        if (fill.evicted) {
            backInvalidate(fill.victimLine, snoop_ts, out);
            if (fill.victimDirty)
                ++stats_->l2Writebacks;
        }
    }
    return t0 + params_.l2.missLatency;
}

Tick
Uncore::scheduleResponse(Tick data_ready)
{
    const Tick start = std::max(data_ready, respBusFreeAt_);
    respBusFreeAt_ = start + params_.busResponseCycles;
    return start + params_.busResponseCycles;
}

ServiceResult
Uncore::serviceBusRequest(const BusMsg &msg, std::vector<Outbound> &out)
{
    ServiceResult result;
    const Addr line = msg.addr;
    const std::uint64_t src_bit = 1ull << msg.src;

    // Bus violation detection: the monitoring variable records the
    // largest timestamp of any serviced request; an older incoming
    // timestamp means the bus is being used in a different order than
    // in the target. Detection and monitor updates are independent of
    // the counting gate — disabling counting (replay) must not let
    // the monitor state drift — while counters, ledger and trace
    // events all follow the gate together, so none of them sees
    // phantom violations during replay.
    const bool bus_violation = msg.ts < busMonitorTs_;
    if (bus_violation) {
        result.busViolation = true;
        if (countViolations_) {
            ++violations_->busViolations;
            if (ledger_)
                ledger_->record(obs::ViolationKind::Bus, line, msg.src,
                                busMonitorSrc_, busMonitorTs_ - msg.ts);
            obs::traceInstant(obs::TraceCategory::Bus, "bus-violation",
                              msg.ts,
                              static_cast<std::int64_t>(msg.src),
                              static_cast<std::int64_t>(busMonitorTs_));
        }
    } else {
        busMonitorTs_ = msg.ts;
        busMonitorSrc_ = msg.src;
    }

    // Request bus arbitration: one grant per cycle.
    const Tick grant = std::max(msg.ts + 1, reqBusFreeAt_);
    stats_->busQueueingCycles += grant - (msg.ts + 1);
    busQueueHist_.add(grant - (msg.ts + 1));
    reqBusFreeAt_ = grant + params_.busRequestCycles;
    ++stats_->busRequests;
    obs::traceInstant(obs::TraceCategory::Bus, "bus-grant", grant,
                      static_cast<std::int64_t>(msg.src),
                      static_cast<std::int64_t>(grant - (msg.ts + 1)));
    const Tick snoop_ts = grant + 1;

    // Map violation detection on the line's monitoring variable.
    MapEntry &e = map_.entry(line);
    const Tick map_monitor = e.monitorTs;
    const CoreId map_prior = e.lastTouch;
    if (map_.recordTransition(e, msg.ts, msg.src)) {
        result.mapViolation = true;
        if (countViolations_) {
            ++violations_->mapViolations;
            if (ledger_)
                ledger_->record(obs::ViolationKind::Map, line, msg.src,
                                map_prior, map_monitor - msg.ts);
            obs::traceInstant(obs::TraceCategory::Map, "map-violation",
                              msg.ts,
                              static_cast<std::int64_t>(msg.src),
                              static_cast<std::int64_t>(line));
        }
    }

    switch (msg.type) {
      case MsgType::GetS: {
        Tick data_ready;
        if (e.owner != invalidCore && e.owner != msg.src) {
            // Dirty copy elsewhere: snoop-downgrade the owner, data
            // comes cache-to-cache and is written back to L2.
            sendSnoop(e.owner, CacheKind::Data, MsgType::SnoopDown,
                      line, snoop_ts, out);
            e.dSharers |= 1ull << e.owner;
            e.owner = invalidCore;
            data_ready = grant + params_.c2cLatency;
            ++stats_->cacheToCacheTransfers;
            const L2FillResult wb = l2_.writeback(line);
            if (wb.evicted) {
                backInvalidate(wb.victimLine, snoop_ts, out);
                if (wb.victimDirty)
                    ++stats_->l2Writebacks;
            }
        } else {
            if (e.owner == msg.src)
                e.owner = invalidCore; // stale ownership, be robust
            data_ready = accessL2(line, grant, true, out, snoop_ts);
        }
        if (msg.cache == CacheKind::Instr)
            e.iSharers |= src_bit;
        else
            e.dSharers |= src_bit;
        const bool exclusive =
            params_.protocol == CoherenceProtocol::MESI &&
            msg.cache == CacheKind::Data && e.owner == invalidCore &&
            (e.dSharers & ~src_bit) == 0 && e.iSharers == 0;
        Outbound o;
        o.dst = msg.src;
        o.msg.type = MsgType::Fill;
        o.msg.addr = line;
        o.msg.cache = msg.cache;
        o.msg.src = msg.src;
        o.msg.grantState = static_cast<std::uint8_t>(
            exclusive ? MesiState::Exclusive : MesiState::Shared);
        o.msg.ts = scheduleResponse(data_ready);
        o.msg.seq = nextSeq_++;
        out.push_back(o);
        if (exclusive)
            e.owner = msg.src; // E implies silent-upgrade ownership
        break;
      }
      case MsgType::GetM: {
        Tick data_ready;
        if (e.owner != invalidCore && e.owner != msg.src) {
            sendSnoop(e.owner, CacheKind::Data, MsgType::SnoopInv, line,
                      snoop_ts, out);
            data_ready = grant + params_.c2cLatency;
            ++stats_->cacheToCacheTransfers;
        } else {
            data_ready = accessL2(line, grant, true, out, snoop_ts);
        }
        for (CoreId c = 0; c < params_.numCores; ++c) {
            if (c == msg.src)
                continue;
            const std::uint64_t bit = 1ull << c;
            if ((e.dSharers & bit) && c != e.owner)
                sendSnoop(c, CacheKind::Data, MsgType::SnoopInv, line,
                          snoop_ts, out);
            if (e.iSharers & bit)
                sendSnoop(c, CacheKind::Instr, MsgType::SnoopInv, line,
                          snoop_ts, out);
        }
        e.dSharers = src_bit;
        e.iSharers = 0;
        e.owner = msg.src;
        Outbound o;
        o.dst = msg.src;
        o.msg.type = MsgType::Fill;
        o.msg.addr = line;
        o.msg.cache = CacheKind::Data;
        o.msg.src = msg.src;
        o.msg.grantState =
            static_cast<std::uint8_t>(MesiState::Modified);
        o.msg.ts = scheduleResponse(data_ready);
        o.msg.seq = nextSeq_++;
        out.push_back(o);
        break;
      }
      case MsgType::Upgrade: {
        for (CoreId c = 0; c < params_.numCores; ++c) {
            if (c == msg.src)
                continue;
            const std::uint64_t bit = 1ull << c;
            if (e.dSharers & bit)
                sendSnoop(c, CacheKind::Data, MsgType::SnoopInv, line,
                          snoop_ts, out);
            if (e.iSharers & bit)
                sendSnoop(c, CacheKind::Instr, MsgType::SnoopInv, line,
                          snoop_ts, out);
        }
        e.dSharers = src_bit;
        e.iSharers = 0;
        e.owner = msg.src;
        Outbound o;
        o.dst = msg.src;
        o.msg.type = MsgType::UpgradeAck;
        o.msg.addr = line;
        o.msg.cache = CacheKind::Data;
        o.msg.src = msg.src;
        o.msg.ts = grant + 2;
        o.msg.seq = nextSeq_++;
        out.push_back(o);
        break;
      }
      case MsgType::PutM: {
        if (e.owner == msg.src) {
            e.owner = invalidCore;
            e.dSharers &= ~src_bit;
        } else {
            // Stale writeback racing an invalidation: drop the map
            // change but still account the data movement.
            e.dSharers &= ~src_bit;
        }
        const L2FillResult wb = l2_.writeback(line);
        if (wb.evicted) {
            backInvalidate(wb.victimLine, snoop_ts, out);
            if (wb.victimDirty)
                ++stats_->l2Writebacks;
        }
        break;
      }
      default:
        SLACKSIM_PANIC("unreachable");
    }
    return result;
}

void
Uncore::serviceSync(const BusMsg &msg, std::vector<Outbound> &out)
{
    grants_.clear();
    sync_.handle(msg, grants_);
    for (const auto &g : grants_) {
        Outbound o;
        o.dst = g.dst;
        o.msg.type = MsgType::SyncGrant;
        o.msg.src = g.dst;
        o.msg.sync = g.sync;
        o.msg.ts = g.ts;
        o.msg.seq = nextSeq_++;
        out.push_back(o);
    }
}

void
Uncore::save(SnapshotWriter &writer) const
{
    writer.putMarker(0xdc02);
    map_.save(writer);
    l2_.save(writer);
    sync_.save(writer);
    writer.put(busMonitorTs_);
    writer.put(busMonitorSrc_);
    writer.put(reqBusFreeAt_);
    writer.put(respBusFreeAt_);
    writer.putVector(bankFreeAt_);
    writer.put(nextSeq_);
    writer.put(busQueueHist_);
    writer.put(*stats_);
    writer.put(*violations_);
    // The forensics ledger rolls back with the violation counters it
    // attributes, or the report's exactness guarantee breaks.
    writer.put<bool>(ledger_ != nullptr);
    if (ledger_)
        ledger_->save(writer);
}

void
Uncore::restore(SnapshotReader &reader)
{
    reader.checkMarker(0xdc02);
    map_.restore(reader);
    l2_.restore(reader);
    sync_.restore(reader);
    busMonitorTs_ = reader.get<Tick>();
    busMonitorSrc_ = reader.get<CoreId>();
    reqBusFreeAt_ = reader.get<Tick>();
    respBusFreeAt_ = reader.get<Tick>();
    bankFreeAt_ = reader.getVector<Tick>();
    nextSeq_ = reader.get<SeqNum>();
    busQueueHist_ = reader.get<Log2Histogram>();
    *stats_ = reader.get<UncoreStats>();
    *violations_ = reader.get<ViolationStats>();
    const bool hadLedger = reader.get<bool>();
    SLACKSIM_ASSERT(hadLedger == (ledger_ != nullptr),
                    "ledger wiring changed across checkpoint");
    if (ledger_)
        ledger_->restore(reader);
    SLACKSIM_ASSERT(bankFreeAt_.size() == params_.l2.banks,
                    "uncore snapshot geometry mismatch");
}

} // namespace slacksim
