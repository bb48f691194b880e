#include "crypto/ctr_mode.hh"

#include <vector>

namespace shmgpu::crypto
{

namespace
{

/**
 * Pack one chunk's AES input. The paper's layout (Fig. 3): address |
 * major | minor | CID, with the partition id folded into the top byte
 * of the CID word so identical local addresses in different
 * partitions still produce distinct pads.
 */
Block16
packChunkSeed(const Seed &seed, std::size_t chunk)
{
    Block16 in;
    std::uint64_t lo = seed.address;
    std::uint64_t hi = (seed.major << 8) ^ (seed.minor << 40) ^
                       (static_cast<std::uint64_t>(seed.partition)
                        << 52) ^
                       static_cast<std::uint64_t>(chunk);
    for (int i = 0; i < 8; ++i) {
        in[i] = static_cast<std::uint8_t>(lo >> (8 * i));
        in[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
    }
    return in;
}

} // namespace

CtrModeEngine::CtrModeEngine(const Block16 &key) : aes(key)
{
}

DataBlock
CtrModeEngine::generatePad(const Seed &seed) const
{
    // One cache line is eight chunk seeds — exactly the AES-NI
    // kernel's pipeline depth.
    std::array<Block16, chunksPerBlock> in, out;
    for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk)
        in[chunk] = packChunkSeed(seed, chunk);
    aes.encryptBlocks(in.data(), out.data(), chunksPerBlock);

    DataBlock pad;
    for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk)
        for (std::size_t i = 0; i < aesChunkBytes; ++i)
            pad[chunk * aesChunkBytes + i] = out[chunk][i];
    return pad;
}

void
CtrModeEngine::generatePads(const Seed *seeds, DataBlock *pads,
                            std::size_t n) const
{
    std::vector<Block16> blocks(n * chunksPerBlock);
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk)
            blocks[b * chunksPerBlock + chunk] =
                packChunkSeed(seeds[b], chunk);
    aes.encryptBlocks(blocks.data(), blocks.data(),
                      blocks.size());
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk)
            for (std::size_t i = 0; i < aesChunkBytes; ++i)
                pads[b][chunk * aesChunkBytes + i] =
                    blocks[b * chunksPerBlock + chunk][i];
}

void
CtrModeEngine::transform(DataBlock &data, const Seed &seed) const
{
    DataBlock pad = generatePad(seed);
    for (std::size_t i = 0; i < blockBytes; ++i)
        data[i] ^= pad[i];
}

void
CtrModeEngine::transformBatch(DataBlock *blocks, const Seed *seeds,
                              std::size_t n) const
{
    std::vector<DataBlock> pads(n);
    generatePads(seeds, pads.data(), n);
    for (std::size_t b = 0; b < n; ++b)
        for (std::size_t i = 0; i < blockBytes; ++i)
            blocks[b][i] ^= pads[b][i];
}

DataBlock
CtrModeEngine::transformed(const DataBlock &data, const Seed &seed) const
{
    DataBlock out = data;
    transform(out, seed);
    return out;
}

} // namespace shmgpu::crypto
