/**
 * @file
 * Workload trace serialization: save a generated Workload to a binary
 * file and load it back, so expensive generations (full-scale LU/FFT)
 * can be reused across runs and shared between machines.
 *
 * Format (version 2): a small header (magic, version, name, sync
 * object counts, shared footprint, thread count), then per thread the
 * code footprint, the record count and the records, one 64-bit
 * TraceInstr word each (version 1 stored 16-byte records and is
 * rejected). Integers are stored little-endian native (the format is
 * a cache, not an interchange standard).
 */

#ifndef SLACKSIM_WORKLOAD_TRACE_IO_HH
#define SLACKSIM_WORKLOAD_TRACE_IO_HH

#include <string>

#include "workload/trace.hh"

namespace slacksim {

/** Write @p workload to @p path. Fatal on I/O failure. */
void saveWorkload(const Workload &workload, const std::string &path);

/**
 * Read a workload from @p path. Fatal on I/O failure or format
 * mismatch; the loaded workload is re-validated structurally.
 */
Workload loadWorkload(const std::string &path);

} // namespace slacksim

#endif // SLACKSIM_WORKLOAD_TRACE_IO_HH
