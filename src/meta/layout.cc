#include "meta/layout.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::meta
{

MetadataLayout::MetadataLayout(const LayoutParams &params) : config(params)
{
    shm_assert(config.dataBytes > 0, "empty protected region");
    shm_assert(isPowerOf2(config.blockBytes), "block size must be pow2");
    shm_assert(isPowerOf2(config.chunkBytes), "chunk size must be pow2");
    shm_assert(config.chunkBytes >= config.blockBytes,
               "chunk smaller than block");
    shm_assert(config.bmtArity >= 2 && config.bmtArity <= kMaxBmtArity,
               "BMT arity {} outside [2, {}]", config.bmtArity,
               kMaxBmtArity);

    blocks = divCeil(config.dataBytes, config.blockBytes);
    chunks = divCeil(config.dataBytes, config.chunkBytes);
    counterBlocks = divCeil(blocks, config.blocksPerCounterBlock);

    // Regions are packed after the data space, each block-aligned.
    LocalAddr cursor = alignUp(config.dataBytes, config.blockBytes);

    counterBase = cursor;
    cursor = alignUp(counterBase + counterBlocks * config.blockBytes,
                     config.blockBytes);

    blockMacBase = cursor;
    cursor = alignUp(blockMacBase + blocks * config.macBytes,
                     config.blockBytes);

    chunkMacBase = cursor;
    cursor = alignUp(chunkMacBase + chunks * config.macBytes,
                     config.blockBytes);

    // BMT levels: level 0 hashes the counter blocks; each higher level
    // hashes the one below, until a single node remains (which the
    // on-chip root then covers, so it is not stored).
    std::uint64_t nodes = divCeil(counterBlocks, config.bmtArity);
    while (nodes >= 1) {
        bmtLevelBase.push_back(cursor);
        bmtLevelNodes.push_back(nodes);
        cursor = alignUp(cursor + nodes * config.blockBytes,
                         config.blockBytes);
        if (nodes == 1)
            break;
        nodes = divCeil(nodes, config.bmtArity);
    }
    spaceEnd = cursor;
}

std::uint64_t
MetadataLayout::blockIndex(LocalAddr data_addr) const
{
    shm_assert(data_addr < config.dataBytes,
               "address {} outside protected region", data_addr);
    return data_addr / config.blockBytes;
}

std::uint64_t
MetadataLayout::chunkIndex(LocalAddr data_addr) const
{
    shm_assert(data_addr < config.dataBytes,
               "address {} outside protected region", data_addr);
    return data_addr / config.chunkBytes;
}

std::uint64_t
MetadataLayout::counterBlockIndex(LocalAddr data_addr) const
{
    return blockIndex(data_addr) / config.blocksPerCounterBlock;
}

std::uint32_t
MetadataLayout::minorSlot(LocalAddr data_addr) const
{
    return static_cast<std::uint32_t>(blockIndex(data_addr) %
                                      config.blocksPerCounterBlock);
}

LocalAddr
MetadataLayout::counterAddr(LocalAddr data_addr) const
{
    return counterBase + counterBlockIndex(data_addr) * config.blockBytes;
}

LocalAddr
MetadataLayout::blockMacAddr(LocalAddr data_addr) const
{
    return blockMacBase + blockIndex(data_addr) * config.macBytes;
}

LocalAddr
MetadataLayout::chunkMacAddr(LocalAddr data_addr) const
{
    return chunkMacBase + chunkIndex(data_addr) * config.macBytes;
}

std::uint64_t
MetadataLayout::bmtNodesAt(unsigned level) const
{
    shm_assert(level < bmtLevelNodes.size(), "BMT level {} out of range",
               level);
    return bmtLevelNodes[level];
}

LocalAddr
MetadataLayout::bmtNodeAddr(unsigned level, std::uint64_t index) const
{
    shm_assert(level < bmtLevelBase.size(), "BMT level {} out of range",
               level);
    shm_assert(index < bmtLevelNodes[level],
               "BMT node {} out of range at level {}", index, level);
    return bmtLevelBase[level] + index * config.blockBytes;
}

std::vector<LocalAddr>
MetadataLayout::bmtPath(std::uint64_t counter_block_idx) const
{
    shm_assert(counter_block_idx < counterBlocks,
               "counter block {} out of range", counter_block_idx);
    std::vector<LocalAddr> path;
    std::uint64_t index = counter_block_idx;
    for (unsigned level = 0; level < bmtLevels(); ++level) {
        index /= config.bmtArity;
        path.push_back(bmtNodeAddr(level, index));
    }
    return path;
}

MetadataLayout::BmtNodeId
MetadataLayout::bmtNodeOf(LocalAddr meta_addr) const
{
    for (unsigned level = 0; level < bmtLevels(); ++level) {
        LocalAddr base = bmtLevelBase[level];
        LocalAddr end = base + bmtLevelNodes[level] * config.blockBytes;
        if (meta_addr >= base && meta_addr < end)
            return {level, (meta_addr - base) / config.blockBytes, true};
    }
    return {};
}

bool
MetadataLayout::isCounterAddr(LocalAddr meta_addr) const
{
    return meta_addr >= counterBase &&
           meta_addr < counterBase + counterBlocks * config.blockBytes;
}

std::uint64_t
MetadataLayout::counterBlockOfCounterAddr(LocalAddr meta_addr) const
{
    shm_assert(isCounterAddr(meta_addr), "not a counter address");
    return (meta_addr - counterBase) / config.blockBytes;
}

std::uint64_t
MetadataLayout::metadataBytes() const
{
    return spaceEnd - alignUp(config.dataBytes, config.blockBytes);
}

} // namespace shmgpu::meta
