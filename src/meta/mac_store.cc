#include "meta/mac_store.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::meta
{

MacStore::MacStore(const MetadataLayout &meta_layout)
    : layout(meta_layout),
      blockShift(floorLog2(layout.params().blockBytes)),
      chunkShift(floorLog2(layout.params().chunkBytes)),
      blockMacs(layout.numBlocks()),
      blockStored(layout.numBlocks()), chunkMacs(layout.numChunks()),
      chunkStored(layout.numChunks())
{
}

void
MacStore::setBlockMac(LocalAddr data_addr, crypto::Mac mac)
{
    const std::uint64_t i = blockIndex(data_addr);
    blocksStored += !blockStored[i];
    blockStored[i] = true;
    blockMacs[i] = mac;
}

std::span<const crypto::Mac>
MacStore::chunkBlockMacs(LocalAddr data_addr) const
{
    const std::uint64_t per_chunk =
        layout.params().chunkBytes / layout.params().blockBytes;
    const std::uint64_t first = chunkIndex(data_addr) * per_chunk;
    return {blockMacs.data() + first,
            std::min(per_chunk, layout.numBlocks() - first)};
}

void
MacStore::setChunkMac(LocalAddr data_addr, crypto::Mac mac)
{
    const std::uint64_t i = chunkIndex(data_addr);
    chunkStored[i] = true;
    chunkMacs[i] = mac;
}

std::optional<crypto::Mac>
MacStore::chunkMac(LocalAddr data_addr) const
{
    const std::uint64_t i = chunkIndex(data_addr);
    if (!chunkStored[i])
        return std::nullopt;
    return chunkMacs[i];
}

void
MacStore::corruptBlockMac(LocalAddr data_addr, std::uint64_t xor_mask)
{
    const std::uint64_t i = blockIndex(data_addr);
    shm_assert(blockStored[i], "corrupting a MAC that was never stored");
    blockMacs[i] ^= xor_mask;
}

void
MacStore::corruptChunkMac(LocalAddr data_addr, std::uint64_t xor_mask)
{
    const std::uint64_t i = chunkIndex(data_addr);
    shm_assert(chunkStored[i], "corrupting a MAC that was never stored");
    chunkMacs[i] ^= xor_mask;
}

} // namespace shmgpu::meta
