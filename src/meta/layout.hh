/**
 * @file
 * Security-metadata address layout.
 *
 * Maps each protected data block to the addresses of its encryption
 * counter block, its 8 B block-level MAC, its 8 B chunk-level MAC, and
 * its Bonsai-Merkle-Tree ancestor nodes. The layout is instantiated
 * per partition over partition-local addresses for PSSM-style schemes,
 * or once over the whole physical space for Naive/Common_ctr schemes.
 *
 * Geometry (defaults):
 *  - data block:      128 B
 *  - counter block:   128 B = one 64 b major + 64 x 7 b minors,
 *                     covering 64 data blocks = 8 KB
 *  - block MAC:       8 B per data block (16 per 128 B MAC block)
 *  - chunk MAC:       8 B per 4 KB chunk
 *  - BMT:             16-ary tree over counter blocks; 128 B nodes of
 *                     16 x 8 B child hashes; root kept on chip
 */

#ifndef SHMGPU_META_LAYOUT_HH
#define SHMGPU_META_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace shmgpu::meta
{

/** Largest BMT arity a layout accepts (a node holds at most 64 child
 *  digests). */
constexpr std::uint32_t kMaxBmtArity = 64;

/** Static geometry parameters of the metadata layout. */
struct LayoutParams
{
    std::uint64_t dataBytes = 0;          //!< protected bytes
    std::uint32_t blockBytes = 128;
    std::uint32_t sectorBytes = 32;
    std::uint64_t chunkBytes = 4096;      //!< coarse-MAC chunk size
    std::uint32_t blocksPerCounterBlock = 64;
    std::uint32_t macBytes = 8;
    std::uint32_t bmtArity = 16;          //!< in [2, kMaxBmtArity]
};

/** Address layout of all metadata regions for one protected space. */
class MetadataLayout
{
  public:
    explicit MetadataLayout(const LayoutParams &params);

    const LayoutParams &params() const { return config; }

    /** @{ Index helpers. */
    std::uint64_t blockIndex(LocalAddr data_addr) const;
    std::uint64_t chunkIndex(LocalAddr data_addr) const;
    std::uint64_t counterBlockIndex(LocalAddr data_addr) const;
    /** Slot of this data block's minor counter within its counter block. */
    std::uint32_t minorSlot(LocalAddr data_addr) const;
    /** @} */

    /** @{ Region element counts. */
    std::uint64_t numBlocks() const { return blocks; }
    std::uint64_t numChunks() const { return chunks; }
    std::uint64_t numCounterBlocks() const { return counterBlocks; }
    /** @} */

    /** Byte address of the counter block for @p data_addr. */
    LocalAddr counterAddr(LocalAddr data_addr) const;

    /** Byte address of the 8 B block MAC for @p data_addr. */
    LocalAddr blockMacAddr(LocalAddr data_addr) const;

    /** Byte address of the 8 B chunk MAC for @p data_addr. */
    LocalAddr chunkMacAddr(LocalAddr data_addr) const;

    /**
     * Number of BMT levels stored in memory. Level 0 is the first
     * level of hash nodes above the counter blocks; the root (one
     * on-chip register) is *not* stored and not counted.
     */
    unsigned bmtLevels() const { return static_cast<unsigned>(
        bmtLevelNodes.size()); }

    /** Number of nodes at stored BMT level @p level. */
    std::uint64_t bmtNodesAt(unsigned level) const;

    /** Byte address of BMT node @p index at stored level @p level. */
    LocalAddr bmtNodeAddr(unsigned level, std::uint64_t index) const;

    /**
     * Addresses of the stored BMT ancestors of a counter block, from
     * the lowest level up (excludes the on-chip root).
     */
    std::vector<LocalAddr> bmtPath(std::uint64_t counter_block_idx) const;

    /** A stored BMT node identified by its level and index. */
    struct BmtNodeId
    {
        unsigned level = 0;
        std::uint64_t index = 0;
        bool valid = false;
    };

    /** Invert a metadata address to its BMT node, if it is one. */
    BmtNodeId bmtNodeOf(LocalAddr meta_addr) const;

    /** True when @p meta_addr lies in the counter region. */
    bool isCounterAddr(LocalAddr meta_addr) const;

    /** Counter-block index of a counter-region address. */
    std::uint64_t counterBlockOfCounterAddr(LocalAddr meta_addr) const;

    /** Total metadata footprint in bytes (for space accounting). */
    std::uint64_t metadataBytes() const;

  private:
    LayoutParams config;
    std::uint64_t blocks;
    std::uint64_t chunks;
    std::uint64_t counterBlocks;

    LocalAddr counterBase;
    LocalAddr blockMacBase;
    LocalAddr chunkMacBase;
    std::vector<LocalAddr> bmtLevelBase;
    std::vector<std::uint64_t> bmtLevelNodes;
    LocalAddr spaceEnd;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_LAYOUT_HH
