/**
 * @file
 * Fundamental scalar types used across the shmgpu simulator.
 */

#ifndef SHMGPU_COMMON_TYPES_HH
#define SHMGPU_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace shmgpu
{

/** A physical (device-global) byte address. */
using Addr = std::uint64_t;

/**
 * A partition-local byte address: the offset within a memory partition
 * after the physical address has been mapped to (partition id, offset).
 * PSSM [Yuan et al., ICS'21] constructs security metadata from these.
 */
using LocalAddr = std::uint64_t;

/** A simulation cycle count (core clock domain). */
using Cycle = std::uint64_t;

/** Number of simulated clock ticks; alias for readability. */
using Tick = std::uint64_t;

/** Identifier of a memory partition (0 .. numPartitions-1). */
using PartitionId = std::uint32_t;

/** Identifier of a streaming multiprocessor. */
using SmId = std::uint32_t;

/** Sentinel for an invalid address. */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no cycle" / unscheduled. */
constexpr Cycle invalidCycle = std::numeric_limits<Cycle>::max();

/** @p base + @p delta, saturating at invalidCycle instead of wrapping. */
constexpr Cycle
saturatingAdd(Cycle base, Cycle delta)
{
    return delta > invalidCycle - base ? invalidCycle : base + delta;
}

/**
 * GPU memory spaces, mirroring the CUDA/OpenCL programming models
 * (Table I of the paper). On-chip spaces (registers, shared memory,
 * caches) never reach the secure-memory engine and are omitted.
 */
enum class MemSpace : std::uint8_t
{
    Global,     //!< off-chip, read/write: needs C+I+F
    Local,      //!< off-chip (spills), read/write: needs C+I+F
    Constant,   //!< off-chip, read-only during kernels: needs C+I
    Texture,    //!< off-chip, read-only during kernels: needs C+I
    Instruction //!< application code: read-only, needs C+I
};

/** Security guarantees required for a memory access (Table I/II). */
struct Guarantees
{
    bool confidentiality = true;
    bool integrity = true;
    bool freshness = true;
};

/**
 * The security guarantees a space requires while its contents are
 * read-only during kernel execution (Tables I and II of the paper).
 */
Guarantees requiredGuarantees(MemSpace space, bool read_only);

} // namespace shmgpu

#endif // SHMGPU_COMMON_TYPES_HH
