/**
 * @file
 * Functional storage for block-level and chunk-level MACs.
 *
 * The timing-mode MDCs track only MAC *addresses*; the values live
 * here for the functional path (tests, examples, attack scenarios).
 */

#ifndef SHMGPU_META_MAC_STORE_HH
#define SHMGPU_META_MAC_STORE_HH

#include <cstdint>
#include <optional>
#include <span>

#include "common/demand_zero.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "crypto/mac.hh"
#include "meta/layout.hh"

namespace shmgpu::meta
{

/**
 * Off-chip MAC value storage (block- and chunk-granularity): dense
 * demand-zero arrays indexed by block and by chunk, each entry with a
 * stored flag. An address at or beyond the protected size panics.
 */
class MacStore
{
  public:
    explicit MacStore(const MetadataLayout &layout);

    /** @{ Block-level MACs, keyed by data address. */
    void setBlockMac(LocalAddr data_addr, crypto::Mac mac);

    std::optional<crypto::Mac>
    blockMac(LocalAddr data_addr) const
    {
        const std::uint64_t i = blockIndex(data_addr);
        if (!blockStored[i])
            return std::nullopt;
        return blockMacs[i];
    }
    /** @} */

    /**
     * The block MACs of every block in @p data_addr's chunk, in
     * address order. Entries never stored read 0: callers store the
     * whole run first.
     */
    std::span<const crypto::Mac> chunkBlockMacs(LocalAddr data_addr) const;

    /** @{ Chunk-level MACs, keyed by any data address in the chunk. */
    void setChunkMac(LocalAddr data_addr, crypto::Mac mac);
    std::optional<crypto::Mac> chunkMac(LocalAddr data_addr) const;
    /** @} */

    /** Attack surface: flip bits in a stored MAC. */
    void corruptBlockMac(LocalAddr data_addr, std::uint64_t xor_mask);
    void corruptChunkMac(LocalAddr data_addr, std::uint64_t xor_mask);

    std::size_t blockMacsStored() const { return blocksStored; }

  private:
    /** Panic unless @p data_addr lies in the protected space. */
    void
    checkAddr(LocalAddr data_addr) const
    {
        shm_assert(data_addr < layout.params().dataBytes,
                   "MAC-store access at address {} beyond its {} "
                   "protected bytes", data_addr,
                   layout.params().dataBytes);
    }

    std::uint64_t
    blockIndex(LocalAddr data_addr) const
    {
        checkAddr(data_addr);
        return data_addr >> blockShift;
    }

    std::uint64_t
    chunkIndex(LocalAddr data_addr) const
    {
        checkAddr(data_addr);
        return data_addr >> chunkShift;
    }

    const MetadataLayout &layout;
    /** log2 of the block and chunk sizes (powers of two, as the
     *  layout asserts). */
    unsigned blockShift;
    unsigned chunkShift;
    DemandZeroArray<crypto::Mac> blockMacs;
    DemandZeroArray<bool> blockStored;
    DemandZeroArray<crypto::Mac> chunkMacs;
    DemandZeroArray<bool> chunkStored;
    std::size_t blocksStored = 0;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_MAC_STORE_HH
