/**
 * @file
 * The workload trace "ISA" and per-thread trace programs.
 *
 * SlackSim ran Splash-2 PISA binaries through a SimpleScalar-derived
 * functional front end. Our substitution (DESIGN.md S6) runs the same
 * algorithms at *generation* time and captures their dynamic memory
 * reference and synchronization stream as a compact trace; the timing
 * core then replays the trace. Because all synchronization operations
 * (locks/barriers) are embedded in the trace and arbitrated inside
 * the simulator, simulated-workload-state violations cannot occur —
 * exactly the property the paper gets from MP_Simplesim's APIs.
 */

#ifndef SLACKSIM_WORKLOAD_TRACE_HH
#define SLACKSIM_WORKLOAD_TRACE_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace slacksim {

/** Trace operation kinds; a record holds the op in three bits. */
enum class TraceOp : std::uint8_t {
    Compute, //!< a run of `count` single-cycle ALU micro-ops
    Load,    //!< one load from `addr`
    Store,   //!< one store to `addr`
    Lock,    //!< acquire lock `sync` (blocks until granted)
    Unlock,  //!< release lock `sync`
    Barrier, //!< arrive at barrier `sync`, block until all arrive
    End,     //!< end of trace
};

/**
 * One trace record, packed into a single 64-bit word:
 *
 *   bits 0-2   the op (a TraceOp)
 *   bit  3     Compute: the first ALU op consumes the last load
 *   bits 4-63  the payload: the address (Load, Store), the ALU-op
 *              count (Compute) or the lock/barrier id (Lock, Unlock,
 *              Barrier)
 *
 * Trivially default-constructible on purpose: trace chunks are
 * allocated uninitialised, so the unwritten tail of a thread's last
 * chunk never becomes resident.
 */
class TraceInstr
{
  public:
    /** Largest payload a record carries (2^60 - 1). */
    static constexpr std::uint64_t maxPayload = ~std::uint64_t{0} >> 4;

    TraceInstr() = default;

    /** A record of @p op carrying @p payload (at most maxPayload). */
    static constexpr TraceInstr
    make(TraceOp op, std::uint64_t payload, bool depends_on_load = false)
    {
        return TraceInstr(payload << payloadShift |
                          (depends_on_load ? dependsOnLoadBit : 0) |
                          static_cast<std::uint64_t>(op));
    }

    std::uint64_t word() const { return word_; }
    TraceOp op() const { return static_cast<TraceOp>(word_ & opMask); }
    bool dependsOnLoad() const { return word_ & dependsOnLoadBit; }
    Addr addr() const { return word_ >> payloadShift; }
    std::uint64_t count() const { return word_ >> payloadShift; }
    std::uint64_t sync() const { return word_ >> payloadShift; }

    /** @return number of committed micro-ops this record expands to. */
    std::uint64_t
    microOps() const
    {
        return op() == TraceOp::Compute ? count() : 1;
    }

  private:
    static constexpr unsigned payloadShift = 4;
    static constexpr std::uint64_t opMask = 0x7;
    static constexpr std::uint64_t dependsOnLoadBit = 0x8;

    explicit constexpr TraceInstr(std::uint64_t word)
        : word_(word)
    {
    }

    std::uint64_t word_;
};

static_assert(sizeof(TraceInstr) == 8, "TraceInstr must stay one word");
static_assert(std::is_trivially_default_constructible_v<TraceInstr> &&
                  std::is_trivially_copyable_v<TraceInstr>,
              "trace chunks are allocated and read uninitialised");

/**
 * One thread's trace records, kept in fixed-size chunks that are
 * allocated as they fill and never move: appending copies nothing and
 * faults each page once, and a reference to a record stays valid for
 * the storage's lifetime. Records within a chunk are contiguous.
 * Copies are deep.
 */
class ChunkedTrace
{
  public:
    /** Records per chunk: 64 Ki records, 512 KiB. */
    static constexpr std::size_t chunkRecords = std::size_t{1} << 16;

    ChunkedTrace() = default;
    ChunkedTrace(const ChunkedTrace &other);
    ChunkedTrace &operator=(const ChunkedTrace &other);

    /** A moved-from trace is empty. */
    ChunkedTrace(ChunkedTrace &&other) noexcept
        : chunks_(std::move(other.chunks_)),
          size_(std::exchange(other.size_, 0))
    {
    }

    ChunkedTrace &
    operator=(ChunkedTrace &&other) noexcept
    {
        chunks_ = std::move(other.chunks_);
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const TraceInstr &
    operator[](std::size_t i) const
    {
        return chunks_[i >> chunkShift][i & chunkMask];
    }

    TraceInstr &
    operator[](std::size_t i)
    {
        return chunks_[i >> chunkShift][i & chunkMask];
    }

    const TraceInstr &back() const { return (*this)[size_ - 1]; }
    TraceInstr &back() { return (*this)[size_ - 1]; }

    void
    push_back(TraceInstr instr)
    {
        if ((size_ & chunkMask) == 0)
            addChunk();
        chunks_.back()[size_++ & chunkMask] = instr;
    }

    /**
     * Append up to @p n records without writing them: as many as the
     * last chunk has room for, opening a new chunk when it is full.
     * @return the appended records, for the caller to fill.
     */
    std::span<TraceInstr> extend(std::size_t n);

    /** Forward iterator over the records in order. */
    class const_iterator
    {
      public:
        const_iterator(const std::unique_ptr<TraceInstr[]> *chunks,
                       std::size_t index)
            : chunks_(chunks), index_(index)
        {
        }

        const TraceInstr &
        operator*() const
        {
            return chunks_[index_ >> chunkShift][index_ & chunkMask];
        }

        const_iterator &
        operator++()
        {
            ++index_;
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return index_ == other.index_;
        }

      private:
        const std::unique_ptr<TraceInstr[]> *chunks_;
        std::size_t index_;
    };

    const_iterator begin() const { return {chunks_.data(), 0}; }
    const_iterator end() const { return {chunks_.data(), size_}; }

  private:
    static constexpr unsigned chunkShift = std::countr_zero(chunkRecords);
    static constexpr std::size_t chunkMask = chunkRecords - 1;

    void addChunk();

    std::vector<std::unique_ptr<TraceInstr[]>> chunks_;
    std::size_t size_ = 0;
};

/** A full dynamic trace for one workload thread. */
struct TraceProgram
{
    ChunkedTrace instrs;
    /** Synthetic static-code footprint in bytes (drives L1I behavior). */
    std::uint64_t codeFootprint = 4096;

    /** Total committed micro-ops the trace expands to. */
    std::uint64_t
    totalMicroOps() const
    {
        std::uint64_t n = 0;
        for (const TraceInstr &instr : instrs)
            if (instr.op() != TraceOp::End)
                n += instr.microOps();
        return n;
    }
};

/**
 * Convenience emitter used by the kernel generators. Consecutive
 * compute ops are coalesced into one record.
 */
class TraceBuilder
{
  public:
    explicit TraceBuilder(TraceProgram &program)
        : program_(program)
    {
    }

    /** Emit @p n ALU micro-ops. */
    void
    compute(std::uint32_t n, bool depends_on_load = false)
    {
        if (n == 0)
            return;
        ChunkedTrace &instrs = program_.instrs;
        if (!depends_on_load && !instrs.empty()) {
            TraceInstr &last = instrs.back();
            if (last.op() == TraceOp::Compute &&
                last.count() <= 0xffffff) {
                last = TraceInstr::make(TraceOp::Compute,
                                        last.count() + n,
                                        last.dependsOnLoad());
                return;
            }
        }
        instrs.push_back(
            TraceInstr::make(TraceOp::Compute, n, depends_on_load));
    }

    /** Emit a load of @p addr, optionally followed by dependent work. */
    void
    load(Addr addr, std::uint32_t dependent_work = 0)
    {
        emitAccess(TraceOp::Load, addr);
        if (dependent_work)
            compute(dependent_work, true);
    }

    /** Emit a store to @p addr. */
    void store(Addr addr) { emitAccess(TraceOp::Store, addr); }

    /** Emit a lock acquire. */
    void lock(SyncId id) { emit(TraceOp::Lock, id); }

    /** Emit a lock release. */
    void unlock(SyncId id) { emit(TraceOp::Unlock, id); }

    /** Emit a barrier arrival. */
    void barrier(SyncId id) { emit(TraceOp::Barrier, id); }

    /** Finalize the trace with an End record. */
    void end() { emit(TraceOp::End, 0); }

    /** @return records emitted so far. */
    std::size_t size() const { return program_.instrs.size(); }

  private:
    void
    emit(TraceOp op, std::uint64_t payload)
    {
        program_.instrs.push_back(TraceInstr::make(op, payload));
    }

    void
    emitAccess(TraceOp op, Addr addr)
    {
        SLACKSIM_ASSERT(addr <= TraceInstr::maxPayload, "address 0x",
                        std::hex, addr, " does not fit a trace record");
        emit(op, addr);
    }

    TraceProgram &program_;
};

/** A complete multi-threaded workload: one trace per core. */
struct Workload
{
    std::string name;
    std::vector<TraceProgram> threads;
    std::uint32_t numLocks = 0;
    std::uint32_t numBarriers = 0;
    std::uint64_t sharedFootprintBytes = 0;

    /** Total committed micro-ops across all threads. */
    std::uint64_t
    totalMicroOps() const
    {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t.totalMicroOps();
        return n;
    }
};

/**
 * Check structural sanity of a workload: every thread's trace ends
 * with End, every Lock has a matching Unlock in program order, all
 * threads hit every barrier the same number of times, and sync ids
 * are within the declared ranges. Aborts via panic on failure (these
 * are generator bugs, not user errors).
 */
void validateWorkload(const Workload &workload);

} // namespace slacksim

#endif // SLACKSIM_WORKLOAD_TRACE_HH
