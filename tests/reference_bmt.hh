/**
 * @file
 * The hash-map Bonsai Merkle Tree: the differential-test reference
 * for meta::BonsaiTree's dense per-level arrays.
 *
 * This is the tree as it was before it went dense: stored digests
 * live in one FlatMap per level, an absent entry reads as the level's
 * default digest, and a node's children are gathered one probe at a
 * time (defaults past the level's end). Leaves hash the serialized
 * counter-block bytes through the byte-buffered SipHasher, nodes and
 * the root hash words through it, so the reference also checks the
 * dense tree's word path. tests/test_meta_store_diff.cc holds the two
 * equal after every operation.
 */

#ifndef SHMGPU_TESTS_REFERENCE_BMT_HH
#define SHMGPU_TESTS_REFERENCE_BMT_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "crypto/siphash.hh"
#include "meta/bmt.hh"
#include "meta/layout.hh"
#include "reference_counters.hh"

namespace shmgpu::test
{

class ReferenceBonsaiTree
{
  public:
    ReferenceBonsaiTree(const meta::MetadataLayout &meta_layout,
                        const ReferenceCounterStore &counter_store,
                        const crypto::SipKey &tree_key)
        : layout(meta_layout), counters(counter_store), key(tree_key)
    {
        nodes.resize(layout.bmtLevels());
        const meta::CounterStore::CounterBlockImage zero_block{};
        defaultLeaf =
            crypto::siphash24(key, zero_block.data(), zero_block.size());
        std::uint64_t below = defaultLeaf;
        std::array<std::uint64_t, meta::kMaxBmtArity> kids{};
        for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
            kids.fill(below);
            below = hashChildren(
                std::span(kids).first(layout.params().bmtArity), level);
            defaultNode.push_back(below);
        }
        rootDigest = rootOf(defaultNode.back());
    }

    void
    updatePath(std::uint64_t counter_block_idx)
    {
        const unsigned arity = layout.params().bmtArity;
        leafDigests[counter_block_idx] = leafDigestOf(counter_block_idx);
        std::array<std::uint64_t, meta::kMaxBmtArity> kids{};
        std::uint64_t child_idx = counter_block_idx;
        for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
            const std::uint64_t node_idx = child_idx / arity;
            nodes[level][node_idx] =
                hashChildren(gatherChildren(level, node_idx, kids), level);
            child_idx = node_idx;
        }
        rootDigest = rootOf(storedNode(layout.bmtLevels() - 1, 0));
    }

    meta::BmtVerifyResult
    verifyPath(std::uint64_t counter_block_idx) const
    {
        const unsigned arity = layout.params().bmtArity;
        if (leafDigestOf(counter_block_idx) != storedLeaf(counter_block_idx))
            return {false, 0};
        std::array<std::uint64_t, meta::kMaxBmtArity> kids{};
        std::uint64_t child_idx = counter_block_idx;
        for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
            const std::uint64_t node_idx = child_idx / arity;
            if (hashChildren(gatherChildren(level, node_idx, kids),
                             level) != storedNode(level, node_idx))
                return {false, level + 1};
            child_idx = node_idx;
        }
        if (rootOf(storedNode(layout.bmtLevels() - 1, 0)) != rootDigest)
            return {false, layout.bmtLevels() + 1};
        return {true, 0};
    }

    std::uint64_t root() const { return rootDigest; }

    void
    corruptStoredNode(unsigned level, std::uint64_t node_idx,
                      std::uint64_t xor_mask)
    {
        nodes[level][node_idx] = storedNode(level, node_idx) ^ xor_mask;
    }

    void
    corruptLeafDigest(std::uint64_t counter_block_idx,
                      std::uint64_t xor_mask)
    {
        leafDigests[counter_block_idx] =
            storedLeaf(counter_block_idx) ^ xor_mask;
    }

    std::size_t
    materializedNodes() const
    {
        std::size_t n = leafDigests.size();
        for (const auto &level : nodes)
            n += level.size();
        return n;
    }

  private:
    std::uint64_t
    leafDigestOf(std::uint64_t counter_block_idx) const
    {
        const meta::CounterStore::CounterBlockImage bytes =
            counters.serializeCounterBlock(counter_block_idx);
        return crypto::siphash24(key, bytes.data(), bytes.size());
    }

    std::uint64_t
    storedLeaf(std::uint64_t idx) const
    {
        const std::uint64_t *digest = leafDigests.find(idx);
        return digest ? *digest : defaultLeaf;
    }

    std::uint64_t
    storedNode(unsigned level, std::uint64_t idx) const
    {
        shm_assert(level < nodes.size(), "BMT level {} out of range",
                   level);
        const std::uint64_t *digest = nodes[level].find(idx);
        return digest ? *digest : defaultNode[level];
    }

    std::span<const std::uint64_t>
    gatherChildren(unsigned level, std::uint64_t node_idx,
                   std::array<std::uint64_t, meta::kMaxBmtArity> &kids) const
    {
        const unsigned arity = layout.params().bmtArity;
        for (unsigned k = 0; k < arity; ++k) {
            const std::uint64_t kid = node_idx * arity + k;
            if (level == 0)
                kids[k] = kid < layout.numCounterBlocks() ? storedLeaf(kid)
                                                          : defaultLeaf;
            else
                kids[k] = kid < layout.bmtNodesAt(level - 1)
                              ? storedNode(level - 1, kid)
                              : defaultNode[level - 1];
        }
        return std::span(kids).first(arity);
    }

    std::uint64_t
    hashChildren(std::span<const std::uint64_t> kids, unsigned level) const
    {
        crypto::SipHasher h(key);
        for (std::uint64_t kid : kids)
            h.updateU64(kid);
        h.updateU64(level);
        return h.digest();
    }

    std::uint64_t
    rootOf(std::uint64_t top) const
    {
        crypto::SipHasher h(key);
        h.updateU64(top);
        h.updateU64(0xB047ull);
        return h.digest();
    }

    const meta::MetadataLayout &layout;
    const ReferenceCounterStore &counters;
    crypto::SipKey key;
    FlatMap<std::uint64_t> leafDigests;
    std::vector<FlatMap<std::uint64_t>> nodes;
    std::uint64_t defaultLeaf;
    std::vector<std::uint64_t> defaultNode;
    std::uint64_t rootDigest;
};

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_BMT_HH
