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

std::uint64_t
AddressMap::swizzle(std::uint64_t super_index) const
{
    if (!swizzleEnabled)
        return 0;
    // Cheap multiplicative mix; only the residue mod partitions is used.
    std::uint64_t z = super_index * 0x9E3779B97F4A7C15ull;
    z ^= z >> 29;
    return partitionDiv.rem(z);
}

PartitionAddr
AddressMap::toLocal(Addr addr) const
{
    std::uint64_t stripe = stripeDiv.quot(addr);
    std::uint64_t offset = addr - stripe * stripeBytes;
    std::uint64_t super_index = partitionDiv.quot(stripe);
    std::uint64_t lane = stripe - super_index * partitions;

    std::uint64_t selector = lane + swizzle(super_index);
    if (selector >= partitions)
        selector -= partitions;

    PartitionAddr out;
    out.partition = static_cast<PartitionId>(selector);
    out.local = super_index * stripeBytes + offset;
    return out;
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
