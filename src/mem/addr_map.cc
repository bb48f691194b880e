#include "mem/addr_map.hh"

#include "common/logging.hh"

namespace shmgpu::mem
{

AddressMap::AddressMap(unsigned num_partitions,
                       std::uint64_t interleave_bytes, bool xor_swizzle)
    : partitions(num_partitions), stripeBytes(interleave_bytes),
      swizzleEnabled(xor_swizzle)
{
    shm_assert(partitions > 0, "need at least one partition");
    shm_assert(stripeBytes > 0, "interleave granularity must be nonzero");
    stripeDiv = ExactDivider(stripeBytes);
    partitionDiv = ExactDivider(partitions);
}

Addr
AddressMap::toPhysical(PartitionId partition, LocalAddr local) const
{
    shm_assert(partition < partitions, "partition {} out of range",
               partition);
    std::uint64_t super_index = stripeDiv.quot(local);
    std::uint64_t offset = local - super_index * stripeBytes;
    // Undo the swizzle: lane = (partition - swizzle) mod partitions.
    std::uint64_t sw = swizzle(super_index);
    std::uint64_t lane =
        partition >= sw ? partition - sw : partition + partitions - sw;
    std::uint64_t stripe = super_index * partitions + lane;
    return stripe * stripeBytes + offset;
}

} // namespace shmgpu::mem
