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

#include <cstdint>
#include <vector>

#include "common/demand_zero.hh"
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

/**
 * Functional 64-bit-digest Bonsai Merkle Tree over a CounterStore.
 *
 * Every level (the leaf digests, then each stored node level) is one
 * dense demand-zero array holding each digest XORed with the level's
 * default digest, so an untouched entry reads as the default and a
 * node's children are one contiguous run; the array is padded to a
 * whole number of parents, so a ragged last node's missing children
 * read as defaults too. A stored flag per entry keeps
 * materializedNodes() counting the digests written.
 */
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
     * Panics unless @p node_idx lies inside stored level @p level.
     */
    void corruptStoredNode(unsigned level, std::uint64_t node_idx,
                           std::uint64_t xor_mask);

    /** Attack surface for tests: overwrite a stored leaf digest. */
    void corruptLeafDigest(std::uint64_t counter_block_idx,
                           std::uint64_t xor_mask);

    /** Number of materialized (non-default) stored digests. */
    std::size_t materializedNodes() const { return storedDigests; }

  private:
    /** One level of stored digests: the leaves, or a node level. */
    struct Level
    {
        Level(std::uint64_t entries, unsigned arity,
              std::uint64_t default_digest);

        /** Entries that exist (the array is padded past them). */
        std::uint64_t size;
        /** The digest of an untouched entry. */
        std::uint64_t fallback;
        /** digest ^ fallback per entry. */
        DemandZeroArray<std::uint64_t> digests;
        DemandZeroArray<bool> stored;
    };

    /** Stored digest @p idx of level @p l (0 = leaves). */
    std::uint64_t
    digestAt(unsigned l, std::uint64_t idx) const
    {
        return levels[l].digests[idx] ^ levels[l].fallback;
    }
    /** Overwrite digest @p idx of level @p l, marking it stored. */
    void store(unsigned l, std::uint64_t idx, std::uint64_t digest);
    /** Panic unless @p idx lies inside level @p l. */
    void checkIndex(unsigned l, std::uint64_t idx) const;

    std::uint64_t
    leafDigest(const CounterStore::CounterBlockImage &image) const;
    std::uint64_t leafDigestOf(std::uint64_t counter_block_idx) const;
    /** The digest of node @p node_idx at stored level @p level over
     *  its stored children. */
    std::uint64_t nodeDigestOf(unsigned level, std::uint64_t node_idx) const;
    /** The on-chip root over the top stored node. */
    std::uint64_t rootOf(std::uint64_t top) const;

    const MetadataLayout &layout;
    const CounterStore &counters;
    crypto::SipKey key;

    /** [0] the leaf digests, [l + 1] stored node level l. */
    std::vector<Level> levels;
    std::size_t storedDigests = 0;
    std::uint64_t rootDigest;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_BMT_HH
