/**
 * @file
 * Configuration helpers.
 */

#include "core/config.hh"

#include <bit>

#include "util/logging.hh"

namespace slacksim {

const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::CycleByCycle:
        return "cc";
      case SchemeKind::Quantum:
        return "quantum";
      case SchemeKind::Bounded:
        return "bounded";
      case SchemeKind::Unbounded:
        return "unbounded";
      case SchemeKind::Adaptive:
        return "adaptive";
      case SchemeKind::LaxP2P:
        return "lax-p2p";
    }
    return "unknown";
}

SchemeKind
parseScheme(const std::string &name)
{
    if (name == "cc" || name == "cycle" || name == "cycle-by-cycle")
        return SchemeKind::CycleByCycle;
    if (name == "quantum")
        return SchemeKind::Quantum;
    if (name == "bounded" || name == "slack")
        return SchemeKind::Bounded;
    if (name == "unbounded" || name == "free")
        return SchemeKind::Unbounded;
    if (name == "adaptive")
        return SchemeKind::Adaptive;
    if (name == "lax-p2p" || name == "laxp2p" || name == "p2p")
        return SchemeKind::LaxP2P;
    SLACKSIM_FATAL("unknown scheme '", name,
                   "' (expected cc|quantum|bounded|unbounded|adaptive)");
}

void
SimConfig::validate() const
{
    // Hard width limit: the uncore's directory/sync sharer vectors
    // (GlobalMap presence masks, dSharers, barrier arrivedMask) are
    // single 64-bit words indexed by core id, and shifting by >= 64
    // is silent wraparound. Enforce the limit here, at config load,
    // so no mask arithmetic anywhere downstream can overflow.
    if (target.numCores < 1 || target.numCores > 64)
        SLACKSIM_FATAL("numCores must be in [1, 64] (uncore sharer ",
                       "masks are 64-bit words)");
    // Same limit for the core: its issue mask holds one bit per ROB
    // slot in a 64-bit word, and ROB and store-buffer slots are
    // indexed by masking the sequence number.
    if (target.core.robSize < 4 || target.core.robSize > 64 ||
        !std::has_single_bit(target.core.robSize)) {
        SLACKSIM_FATAL("robSize must be a power of two in [4, 64] (the ",
                       "issue mask is a 64-bit word)");
    }
    if (!std::has_single_bit(target.core.sbSize))
        SLACKSIM_FATAL("sbSize must be a power of two");
    if (workload.numThreads != target.numCores)
        SLACKSIM_FATAL("workload threads (", workload.numThreads,
                       ") must match target cores (", target.numCores,
                       ")");
    if ((engine.scheme == SchemeKind::Bounded ||
         engine.scheme == SchemeKind::LaxP2P) &&
        engine.slackBound < 1) {
        SLACKSIM_FATAL("bounded/lax-p2p slack requires slackBound >= 1");
    }
    if (engine.scheme == SchemeKind::LaxP2P &&
        engine.p2pShufflePeriod < 1) {
        SLACKSIM_FATAL("lax-p2p requires p2pShufflePeriod >= 1");
    }
    if (engine.scheme == SchemeKind::Quantum && engine.quantum < 1)
        SLACKSIM_FATAL("quantum scheme requires quantum >= 1");
    if (engine.scheme == SchemeKind::Adaptive) {
        const auto &a = engine.adaptive;
        if (a.targetViolationRate <= 0.0)
            SLACKSIM_FATAL("adaptive target rate must be positive");
        if (a.minBound < 1 || a.minBound > a.maxBound)
            SLACKSIM_FATAL("adaptive bound range invalid");
        if (a.initialBound < a.minBound || a.initialBound > a.maxBound)
            SLACKSIM_FATAL("adaptive initial bound out of range");
        if (a.epochCycles < 1)
            SLACKSIM_FATAL("adaptive epoch must be >= 1 cycle");
    }
    if (engine.checkpoint.mode != CheckpointMode::Off &&
        engine.checkpoint.interval < 100) {
        SLACKSIM_FATAL("checkpoint interval must be >= 100 cycles");
    }
    if (engine.checkpoint.mode != CheckpointMode::Off &&
        engine.checkpoint.tech == CheckpointTech::ForkProcess &&
        engine.parallelHost) {
        SLACKSIM_FATAL("fork() checkpoints require the serial host "
                       "engine (fork clones only one thread)");
    }
    if (engine.burstCycles < 1)
        SLACKSIM_FATAL("burstCycles must be >= 1");
    if (engine.queueCapacity < 64)
        SLACKSIM_FATAL("queueCapacity must be >= 64");
    if (engine.hostThreads > 0 && !engine.parallelHost)
        SLACKSIM_FATAL("hostThreads applies to the parallel host "
                       "engine only");
    if (engine.recovery.stormThreshold > 0 &&
        engine.recovery.stormWindow < 1) {
        SLACKSIM_FATAL("rollback-storm detection requires "
                       "stormWindow >= 1 cycle");
    }
    if (engine.obs.bufferKb < 1 || engine.obs.bufferKb > (1u << 20))
        SLACKSIM_FATAL("obs bufferKb must be in [1, 1048576]");
    if (target.l1d.lineBytes != target.l1i.lineBytes ||
        target.l1d.lineBytes != target.l2.lineBytes) {
        SLACKSIM_FATAL("L1/L2 line sizes must match");
    }
}

} // namespace slacksim
