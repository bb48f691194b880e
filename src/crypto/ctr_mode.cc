#include "crypto/ctr_mode.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace shmgpu::crypto
{

namespace
{

/** Blocks whose pads one on-stack group holds (64 AES blocks, 1 KB). */
constexpr std::size_t kGroupBlocks = 8;

void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof(v));
}

/**
 * Pack the eight AES inputs of one block's pad. The paper's layout
 * (Fig. 3): address | major | minor | CID, with the partition id
 * folded into the top byte of the CID word so identical local
 * addresses in different partitions still produce distinct pads.
 */
void
packSeed(const Seed &seed, Block16 *in)
{
    const std::uint64_t hi = (seed.major << 8) ^ (seed.minor << 40) ^
                             (static_cast<std::uint64_t>(seed.partition)
                              << 52);
    for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk) {
        storeLe64(in[chunk].data(), seed.address);
        storeLe64(in[chunk].data() + 8, hi ^ chunk);
    }
}

/** XOR the @p pads (eight AES blocks) into @p data. */
void
xorPad(DataBlock &data, const Block16 *pads)
{
    for (std::size_t i = 0; i < blockBytes; i += 8) {
        std::uint64_t d, p;
        std::memcpy(&d, data.data() + i, 8);
        std::memcpy(&p, pads[i / aesChunkBytes].data() + i % aesChunkBytes,
                    8);
        d ^= p;
        std::memcpy(data.data() + i, &d, 8);
    }
}

} // namespace

CtrModeEngine::CtrModeEngine(const Block16 &key) : aes(key)
{
}

DataBlock
CtrModeEngine::generatePad(const Seed &seed) const
{
    DataBlock pad;
    generatePads(&seed, &pad, 1);
    return pad;
}

void
CtrModeEngine::generatePads(const Seed *seeds, DataBlock *pads,
                            std::size_t n) const
{
    std::array<Block16, kGroupBlocks * chunksPerBlock> group;
    for (std::size_t b = 0; b < n; b += kGroupBlocks) {
        const std::size_t m = std::min(kGroupBlocks, n - b);
        for (std::size_t k = 0; k < m; ++k)
            packSeed(seeds[b + k], group.data() + k * chunksPerBlock);
        aes.encryptBlocks(group.data(), group.data(), m * chunksPerBlock);
        for (std::size_t k = 0; k < m; ++k)
            std::memcpy(pads[b + k].data(),
                        group.data() + k * chunksPerBlock, blockBytes);
    }
}

void
CtrModeEngine::transform(DataBlock &data, const Seed &seed) const
{
    transformBatch(&data, &seed, 1);
}

void
CtrModeEngine::transformBatch(DataBlock *blocks, const Seed *seeds,
                              std::size_t n) const
{
    // Pads for up to kGroupBlocks blocks at a time, on the stack: one
    // batched AES sweep per group, then XORed in place.
    std::array<Block16, kGroupBlocks * chunksPerBlock> pads;
    for (std::size_t b = 0; b < n; b += kGroupBlocks) {
        const std::size_t m = std::min(kGroupBlocks, n - b);
        for (std::size_t k = 0; k < m; ++k)
            packSeed(seeds[b + k], pads.data() + k * chunksPerBlock);
        aes.encryptBlocks(pads.data(), pads.data(), m * chunksPerBlock);
        for (std::size_t k = 0; k < m; ++k)
            xorPad(blocks[b + k], pads.data() + k * chunksPerBlock);
    }
}

DataBlock
CtrModeEngine::transformed(const DataBlock &data, const Seed &seed) const
{
    DataBlock out = data;
    transform(out, seed);
    return out;
}

} // namespace shmgpu::crypto
