/**
 * @file
 * Physical-to-partition address mapping.
 *
 * GPUs interleave the physical address space across memory partitions
 * at a fine granularity so that streaming accesses load-balance over
 * all GDDR channels. PSSM (and this paper) construct security metadata
 * from the *partition-local* address — the offset within a partition
 * after this mapping — to avoid metadata redundancy across partitions.
 */

#ifndef SHMGPU_MEM_ADDR_MAP_HH
#define SHMGPU_MEM_ADDR_MAP_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"

namespace shmgpu::mem
{

/** Result of mapping a physical address. */
struct PartitionAddr
{
    PartitionId partition = 0;
    LocalAddr local = 0;

    bool operator==(const PartitionAddr &) const = default;
};

/**
 * Interleaved partition mapping with an XOR swizzle.
 *
 * The physical space is carved into @p interleaveBytes stripes that
 * rotate over the partitions; a XOR of higher "super-stripe" bits into
 * the partition selector breaks pathological strides (mirroring the
 * address hashing of real GDDR controllers).
 *
 * Both divisors (stripe size and partition count) are runtime values,
 * so every division goes through a precomputed ExactDivider: mapping
 * an address costs multiplies, never a divide instruction.
 */
class AddressMap
{
  public:
    AddressMap(unsigned num_partitions, std::uint64_t interleave_bytes,
               bool xor_swizzle = true);

    /** Map a physical address to (partition, local offset). */
    PartitionAddr toLocal(Addr addr) const;

    /** Invert the mapping: reconstruct the physical address. */
    Addr toPhysical(PartitionId partition, LocalAddr local) const;

    unsigned numPartitions() const { return partitions; }
    std::uint64_t interleaveBytes() const { return stripeBytes; }

  private:
    std::uint64_t swizzle(std::uint64_t stripe_index) const;

    unsigned partitions;
    std::uint64_t stripeBytes;
    bool swizzleEnabled;
    ExactDivider stripeDiv;    //!< / stripeBytes
    ExactDivider partitionDiv; //!< / partitions
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_ADDR_MAP_HH
