/**
 * @file
 * Workload trace serialization implementation.
 */

#include "workload/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/logging.hh"

namespace slacksim {

namespace {

constexpr std::uint64_t traceMagic = 0x534c4b54524330ull; // "SLKTRC0"
constexpr std::uint32_t traceVersion = 2;

struct FileCloser
{
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
writeAll(std::FILE *f, const void *data, std::size_t bytes,
         const std::string &path)
{
    if (std::fwrite(data, 1, bytes, f) != bytes)
        SLACKSIM_FATAL("short write to '", path, "'");
}

void
readAll(std::FILE *f, void *data, std::size_t bytes,
        const std::string &path)
{
    if (std::fread(data, 1, bytes, f) != bytes)
        SLACKSIM_FATAL("short read from '", path, "'");
}

template <typename T>
void
writeScalar(std::FILE *f, const T &v, const std::string &path)
{
    writeAll(f, &v, sizeof(T), path);
}

template <typename T>
T
readScalar(std::FILE *f, const std::string &path)
{
    T v;
    readAll(f, &v, sizeof(T), path);
    return v;
}

} // namespace

void
saveWorkload(const Workload &workload, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        SLACKSIM_FATAL("cannot open '", path, "' for writing");

    writeScalar(f.get(), traceMagic, path);
    writeScalar(f.get(), traceVersion, path);
    const std::uint32_t name_len =
        static_cast<std::uint32_t>(workload.name.size());
    writeScalar(f.get(), name_len, path);
    writeAll(f.get(), workload.name.data(), name_len, path);
    writeScalar(f.get(), workload.numLocks, path);
    writeScalar(f.get(), workload.numBarriers, path);
    writeScalar(f.get(), workload.sharedFootprintBytes, path);
    writeScalar(
        f.get(),
        static_cast<std::uint32_t>(workload.threads.size()), path);
    for (const TraceProgram &t : workload.threads) {
        writeScalar(f.get(), t.codeFootprint, path);
        const std::size_t count = t.instrs.size();
        writeScalar(f.get(), static_cast<std::uint64_t>(count), path);
        // A chunk's records are contiguous.
        for (std::size_t i = 0; i < count;
             i += ChunkedTrace::chunkRecords) {
            const std::size_t n =
                std::min(count - i, ChunkedTrace::chunkRecords);
            writeAll(f.get(), &t.instrs[i], n * sizeof(TraceInstr),
                     path);
        }
    }
}

Workload
loadWorkload(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        SLACKSIM_FATAL("cannot open '", path, "' for reading");

    if (readScalar<std::uint64_t>(f.get(), path) != traceMagic)
        SLACKSIM_FATAL("'", path, "' is not a slacksim trace file");
    const auto version = readScalar<std::uint32_t>(f.get(), path);
    if (version != traceVersion)
        SLACKSIM_FATAL("'", path, "' has unsupported trace version ",
                       version);

    Workload w;
    const auto name_len = readScalar<std::uint32_t>(f.get(), path);
    if (name_len > 4096)
        SLACKSIM_FATAL("'", path, "' has an implausible name length");
    w.name.resize(name_len);
    readAll(f.get(), w.name.data(), name_len, path);
    w.numLocks = readScalar<std::uint32_t>(f.get(), path);
    w.numBarriers = readScalar<std::uint32_t>(f.get(), path);
    w.sharedFootprintBytes = readScalar<std::uint64_t>(f.get(), path);
    const auto threads = readScalar<std::uint32_t>(f.get(), path);
    if (threads == 0 || threads > 64)
        SLACKSIM_FATAL("'", path, "' has a bad thread count ", threads);
    w.threads.resize(threads);
    for (TraceProgram &t : w.threads) {
        t.codeFootprint = readScalar<std::uint64_t>(f.get(), path);
        const auto count = readScalar<std::uint64_t>(f.get(), path);
        if (count > (1ull << 32))
            SLACKSIM_FATAL("'", path, "' has an implausible trace size");
        // A chunk at a time, so a header that claims more records
        // than the file holds ends in a short read, not in a huge
        // allocation.
        for (std::uint64_t left = count; left != 0;) {
            const std::span<TraceInstr> records = t.instrs.extend(left);
            readAll(f.get(), records.data(), records.size_bytes(), path);
            left -= records.size();
        }
    }
    validateWorkload(w);
    return w;
}

} // namespace slacksim
