/**
 * @file
 * Trace recording and replay.
 *
 * A trace file captures a workload's complete per-SM instruction/access
 * stream (all kernels, plus the host-copy events that seed the
 * read-only detector) so that runs can be reproduced, shared, and
 * analyzed without the workload generator. The record-time SM
 * interleaving (round-robin) is frozen into the file; replay returns
 * exactly the recorded streams.
 *
 * Format (little-endian, version 2):
 *   header : "SHMT" u32-version u32-numSms u32-numKernels
 *   kernel : u32-numCopies { u64 base, u64 bytes, u8 declaredRO }...
 *            u32-window
 *            u64-numOps { u64 addr, u8 sm, u8 computeInstrs,
 *                         u8 type, u8 space, u32 bytes }...
 *
 * Version 1 lacked the per-kernel load window; such files are
 * rejected rather than replayed at the wrong occupancy.
 */

#ifndef SHMGPU_WORKLOAD_TRACE_FILE_HH
#define SHMGPU_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/spec.hh"
#include "workload/trace.hh"

namespace shmgpu::workload
{

/** A host-copy event as stored in a trace. */
struct TraceCopy
{
    Addr base = 0;
    std::uint64_t bytes = 0;
    bool declaredReadOnly = false;
};

/** One recorded memory operation. */
struct TraceRecord
{
    TraceOp op;
    SmId sm = 0;
};

/** One kernel's worth of trace. */
struct TraceKernel
{
    std::vector<TraceCopy> copies;
    /** The kernel's outstanding-load window (KernelSpec::maxOutstanding;
     *  0 = the GPU's smWindow). */
    std::uint32_t window = 0;
    std::vector<TraceRecord> records;
};

/** An in-memory trace (what the file serializes). */
struct Trace
{
    std::uint32_t numSms = 0;
    std::vector<TraceKernel> kernels;

    std::uint64_t
    totalOps() const
    {
        std::uint64_t n = 0;
        for (const auto &k : kernels)
            n += k.records.size();
        return n;
    }
};

/**
 * Generate a workload's trace by draining its kernels round-robin
 * across SMs (the same interleaving the simulator's SM loop produces
 * when nothing stalls).
 */
Trace generateTrace(const WorkloadSpec &spec, std::uint32_t num_sms);

/** FNV-1a hash over every field of @p trace (fingerprint contract,
 *  common/fingerprint.hh). */
std::uint64_t contentHash(const Trace &trace);

/** Serialize @p trace to @p path; fatal on I/O failure. */
void writeTrace(const Trace &trace, const std::string &path);

/** Load a trace; fatal on I/O or format errors. */
Trace readTrace(const std::string &path);

/**
 * Load a trace without dying on bad input: returns false and fills
 * @p error with an actionable message on I/O or format problems
 * (missing file, bad magic, unsupported version, truncation, count
 * fields exceeding the file size, out-of-range SM ids or memory
 * spaces). Element counts are validated against the bytes actually
 * remaining in the file before any allocation, so a corrupt count
 * field cannot trigger a huge reserve. @p out is unspecified on
 * failure.
 */
bool tryReadTrace(const std::string &path, Trace &out,
                  std::string &error);

/**
 * Per-kernel replay source with the same next()/done() shape as
 * KernelTrace: per-SM queues return the recorded streams.
 */
class TraceReplay
{
  public:
    explicit TraceReplay(const Trace &trace, std::uint32_t kernel_idx);

    /** Next recorded op for @p sm; false when its stream is drained. */
    bool next(SmId sm, TraceOp &op);

    bool done() const { return drained == cursors.size(); }

  private:
    const TraceKernel *kernel;
    /** Per-SM index lists into kernel->records. */
    std::vector<std::vector<std::uint32_t>> perSm;
    std::vector<std::size_t> cursors;
    std::size_t drained = 0;
};

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_TRACE_FILE_HH
