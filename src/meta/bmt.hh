/**
 * @file
 * Functional Bonsai Merkle Tree (Rogers et al., MICRO'07).
 *
 * The BMT covers only the encryption counters: leaf digests hash
 * counter blocks, internal digests hash their children in order, and
 * the root lives in an on-chip register. Replaying a counter block
 * (plus any consistent subset of stored tree nodes) is caught because
 * the recomputed chain eventually disagrees with either a stored node
 * or the on-chip root.
 *
 * Timing-mode simulation only uses the layout geometry (bmtPath); this
 * functional tree backs the attack tests and functional examples.
 */

#ifndef SHMGPU_META_BMT_HH
#define SHMGPU_META_BMT_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.hh"
#include "crypto/siphash.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"

namespace shmgpu::meta
{

/** Result of a BMT path verification. */
struct BmtVerifyResult
{
    bool ok = true;
    /**
     * Depth of the first mismatch (only when !ok): 0 = leaf digest vs.
     * counter content, 1..bmtLevels() = stored node levels,
     * bmtLevels()+1 = on-chip root.
     */
    unsigned failedLevel = 0;
};

/** Functional 64-bit-digest Bonsai Merkle Tree over a CounterStore. */
class BonsaiTree
{
  public:
    BonsaiTree(const MetadataLayout &layout, const CounterStore &counters,
               const crypto::SipKey &tree_key);

    /** Recompute and store the path for an updated counter block. */
    void updatePath(std::uint64_t counter_block_idx);

    /** Verify the chain from @p counter_block_idx up to the root. */
    BmtVerifyResult verifyPath(std::uint64_t counter_block_idx) const;

    /** The on-chip root digest. */
    std::uint64_t root() const { return rootDigest; }

    /**
     * Attack surface for tests: flip bits in a *stored* (off-chip)
     * node digest. The on-chip root cannot be corrupted this way.
     */
    void corruptStoredNode(unsigned level, std::uint64_t node_idx,
                           std::uint64_t xor_mask);

    /** Attack surface for tests: overwrite a stored leaf digest. */
    void corruptLeafDigest(std::uint64_t counter_block_idx,
                           std::uint64_t xor_mask);

    /** Number of materialized (non-default) stored digests. */
    std::size_t materializedNodes() const;

  private:
    std::uint64_t leafDigestOf(std::uint64_t counter_block_idx) const;
    std::uint64_t storedLeaf(std::uint64_t idx) const;
    std::uint64_t storedNode(unsigned level, std::uint64_t idx) const;
    /** The stored digests of node @p node_idx's children at stored
     *  level @p level, in order (defaults past the level's end). */
    std::span<const std::uint64_t>
    gatherChildren(unsigned level, std::uint64_t node_idx,
                   std::array<std::uint64_t, kMaxBmtArity> &kids) const;
    std::uint64_t hashChildren(std::span<const std::uint64_t> kids,
                               unsigned level) const;
    /** The on-chip root over the top stored node. */
    std::uint64_t rootOf(std::uint64_t top) const;

    const MetadataLayout &layout;
    const CounterStore &counters;
    crypto::SipKey key;

    /** Stored (off-chip) leaf digests, one per counter block. */
    FlatMap<std::uint64_t> leafDigests;
    /** Stored (off-chip) internal digests per level. */
    std::vector<FlatMap<std::uint64_t>> nodes;

    std::uint64_t defaultLeaf;
    std::vector<std::uint64_t> defaultNode; //!< per stored level
    std::uint64_t rootDigest;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_BMT_HH
