/**
 * @file
 * In-memory checkpoint serialization.
 *
 * The paper checkpoints the simulator with fork(); fork() only clones
 * the calling thread, so a multi-threaded SlackSim cannot literally be
 * checkpointed that way. Instead every stateful component implements
 * save()/restore() against these byte-buffer streams; a global
 * checkpoint is the concatenation of all component snapshots taken
 * while the simulation is quiesced (see DESIGN.md S10).
 */

#ifndef SLACKSIM_UTIL_SNAPSHOT_HH
#define SLACKSIM_UTIL_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace slacksim {

/** Append-only byte stream a component serializes itself into. */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;

    /**
     * Arena-reuse mode: adopt a retained buffer and serialize into
     * it, keeping its capacity. A checkpointer that round-trips its
     * buffer through release() and back here allocates only while a
     * snapshot is still growing past its high-water mark, instead of
     * re-growing the whole world's serialization every interval.
     */
    explicit SnapshotWriter(std::vector<std::uint8_t> &&arena)
        : buf_(std::move(arena))
    {
        buf_.clear();
    }

    /**
     * Serialize one value by copying its bytes raw. The type must be
     * trivially copyable with no padding and no floating point, so an
     * image depends only on the state it holds: two images of one
     * state have the same bytes and checksum.
     */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "put() copies bytes raw: the type must be "
                      "trivially copyable with no padding (name it as "
                      "a zeroed member)");
        const auto *bytes = reinterpret_cast<const std::uint8_t *>(&value);
        buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
    }

    /** Serialize a vector of values, each as put() would. */
    template <typename T>
    void
    putVector(const std::vector<T> &values)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "putVector() copies bytes raw: the element must "
                      "be trivially copyable with no padding (name it "
                      "as a zeroed member)");
        put<std::uint64_t>(values.size());
        if (!values.empty()) {
            const auto *bytes =
                reinterpret_cast<const std::uint8_t *>(values.data());
            buf_.insert(buf_.end(), bytes,
                        bytes + values.size() * sizeof(T));
        }
    }

    /**
     * Write a section marker that restore() verifies; catches
     * save/restore ordering bugs early.
     */
    void
    putMarker(std::uint32_t tag)
    {
        put<std::uint32_t>(0x534e4150u); // "SNAP"
        put<std::uint32_t>(tag);
    }

    /** @return serialized bytes accumulated so far. */
    const std::vector<std::uint8_t> &bytes() const { return buf_; }

    /** @return current size in bytes. */
    std::size_t size() const { return buf_.size(); }

    /** Move the buffer out of the writer. */
    std::vector<std::uint8_t> release() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Sequential reader over a snapshot byte stream. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes)
        : buf_(bytes), limit_(bytes.size())
    {
    }

    /**
     * Read only the first @p limit bytes of @p bytes: a sealed
     * checkpoint arena carries an integrity trailer past the payload
     * (util/checksum.hh) that restore() must never consume, and
     * exhausted() must report done at the payload boundary.
     */
    SnapshotReader(const std::vector<std::uint8_t> &bytes,
                   std::size_t limit)
        : buf_(bytes), limit_(limit)
    {
        SLACKSIM_ASSERT(limit <= bytes.size(),
                        "snapshot read limit past the buffer");
    }

    /** Deserialize one trivially-copyable value. */
    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "get() requires a trivially copyable type");
        SLACKSIM_ASSERT(pos_ + sizeof(T) <= limit_,
                        "snapshot underrun at ", pos_);
        T value;
        std::memcpy(&value, buf_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    /** Deserialize a vector written by putVector(). */
    template <typename T>
    std::vector<T>
    getVector()
    {
        const auto count = get<std::uint64_t>();
        SLACKSIM_ASSERT(pos_ + count * sizeof(T) <= limit_,
                        "snapshot vector underrun");
        std::vector<T> values(count);
        if (count) {
            std::memcpy(values.data(), buf_.data() + pos_,
                        count * sizeof(T));
            pos_ += count * sizeof(T);
        }
        return values;
    }

    /** Verify a marker written by putMarker(). */
    void
    checkMarker(std::uint32_t tag)
    {
        const auto magic = get<std::uint32_t>();
        const auto found = get<std::uint32_t>();
        SLACKSIM_ASSERT(magic == 0x534e4150u && found == tag,
                        "snapshot marker mismatch: expected ", tag,
                        " found ", found);
    }

    /** @return true when every readable byte has been consumed. */
    bool exhausted() const { return pos_ == limit_; }

    /** @return current read offset. */
    std::size_t position() const { return pos_; }

  private:
    const std::vector<std::uint8_t> &buf_;
    std::size_t limit_ = 0;
    std::size_t pos_ = 0;
};

/** Interface for anything that participates in global checkpoints. */
class Snapshotable
{
  public:
    virtual ~Snapshotable() = default;

    /** Serialize full state into @p writer. */
    virtual void save(SnapshotWriter &writer) const = 0;

    /** Restore full state from @p reader. */
    virtual void restore(SnapshotReader &reader) = 0;
};

} // namespace slacksim

#endif // SLACKSIM_UTIL_SNAPSHOT_HH
