/**
 * @file
 * Memory request types shared between the GPU model and the MEE.
 */

#ifndef SHMGPU_MEM_REQUEST_HH
#define SHMGPU_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace shmgpu::mem
{

/** Direction of a memory access. */
enum class AccessType : std::uint8_t { Read, Write };

/**
 * Traffic classes for DRAM accounting. The paper's Fig. 14 separates
 * regular data from each security-metadata stream plus the extra data
 * refetches caused by detector mispredictions.
 */
enum class TrafficClass : std::uint8_t
{
    Data,       //!< regular data blocks
    Counter,    //!< encryption-counter blocks
    Mac,        //!< block-/chunk-level MAC blocks
    Bmt,        //!< Bonsai-Merkle-Tree nodes
    Extra,      //!< misprediction-induced refetches
    NumClasses
};

/**
 * One SM-side memory operation as an explicit message to a partition.
 *
 * Everything the partition needs to serve the op travels in the
 * message: the kind, the sector address in both address spaces, the
 * memory space, the SM issue cycle, and the requesting SM.
 */
struct Transaction
{
    Addr phys = 0;           //!< physical byte address of the sector
    LocalAddr local = 0;     //!< partition-local sector address
    Cycle issue = 0;         //!< SM-side issue cycle
    PartitionId partition = 0;
    SmId sm = 0;             //!< the requesting SM
    std::uint32_t bytes = 0; //!< payload bytes (reply size for reads)
    AccessType type = AccessType::Read;
    MemSpace space = MemSpace::Global;
};

/**
 * A memory request as seen below the L2: an L2 miss (read) or an L2
 * write-back, addressed by physical address before partition mapping.
 */
struct MemRequest
{
    Addr addr = 0;              //!< physical byte address (block-aligned)
    std::uint32_t bytes = 0;    //!< transfer size
    AccessType type = AccessType::Read;
    MemSpace space = MemSpace::Global;
    SmId requester = 0;         //!< originating SM (for reply routing)
    Cycle issued = 0;           //!< cycle the request entered the system
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_REQUEST_HH
