/**
 * @file
 * Bus / sync message format exchanged between core threads and the
 * simulation manager thread through the OutQ/InQ event queues.
 *
 * Every entry carries a timestamp recording the local time at which
 * the event should take effect — the paper's "timestamp field" in the
 * OutQ/InQ/GQ entries.
 */

#ifndef SLACKSIM_UNCORE_MSG_HH
#define SLACKSIM_UNCORE_MSG_HH

#include <cstdint>

#include "util/types.hh"

namespace slacksim {

/** Message kinds; the first group travels core->manager. */
enum class MsgType : std::uint8_t {
    // Core -> manager: coherent bus requests.
    GetS,       //!< read miss: request a shared/exclusive copy
    GetM,       //!< write miss: request an exclusive modified copy
    Upgrade,    //!< S->M upgrade (no data needed)
    PutM,       //!< dirty eviction writeback
    // Core -> manager: synchronization (arbitrated by the manager,
    // like MP_Simplesim's parallel API calls inside SlackSim).
    LockAcq,
    LockRel,
    BarArrive,
    // Manager -> core.
    Fill,        //!< data response; grantState carries the MESI state
    UpgradeAck,  //!< upgrade completed; line may be marked M
    SnoopInv,    //!< invalidate the line (GetM/Upgrade by another core
                 //!< or an L2 back-invalidation)
    SnoopDown,   //!< downgrade M/E to S, write dirty data back
    SyncGrant,   //!< lock granted / barrier released
};

/** Which cache of the core a message concerns. */
enum class CacheKind : std::uint8_t { Data = 0, Instr = 1 };

/**
 * One OutQ/InQ/GQ entry. Checkpoints copy it raw, so its padding is
 * named and always zero (util/snapshot.hh).
 */
struct BusMsg
{
    Addr addr = 0;             //!< line-aligned address
    Tick ts = 0;               //!< local time the event takes effect
    SeqNum seq = 0;            //!< per-source order for tie-breaking
    MsgType type = MsgType::GetS;
    std::uint8_t pad0[3] = {};
    CoreId src = invalidCore;  //!< originating/destination core
    CacheKind cache = CacheKind::Data;
    std::uint8_t grantState = 0;  //!< Fill: granted MesiState
    std::uint16_t sync = 0;       //!< lock/barrier id
    std::uint32_t pad1 = 0;
};

static_assert(sizeof(BusMsg) == 40, "BusMsg padding must stay named");

/** @return true for the request kinds that occupy the request bus. */
constexpr bool
isBusRequest(MsgType t)
{
    return t == MsgType::GetS || t == MsgType::GetM ||
           t == MsgType::Upgrade || t == MsgType::PutM;
}

/** @return true for the synchronization request kinds. */
constexpr bool
isSyncRequest(MsgType t)
{
    return t == MsgType::LockAcq || t == MsgType::LockRel ||
           t == MsgType::BarArrive;
}

/** @return a short printable name for a message type. */
const char *msgTypeName(MsgType t);

} // namespace slacksim

#endif // SLACKSIM_UNCORE_MSG_HH
