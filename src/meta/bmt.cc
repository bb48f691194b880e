#include "meta/bmt.hh"

#include "common/logging.hh"

namespace shmgpu::meta
{

BonsaiTree::BonsaiTree(const MetadataLayout &meta_layout,
                       const CounterStore &counter_store,
                       const crypto::SipKey &tree_key)
    : layout(meta_layout), counters(counter_store), key(tree_key)
{
    nodes.resize(layout.bmtLevels());

    // Default digests for untouched (all-zero) counter state, so the
    // tree is lazily materialized.
    const CounterStore::CounterBlockImage zero_block{};
    defaultLeaf = crypto::siphash24(key, zero_block.data(),
                                    zero_block.size());

    std::uint64_t below = defaultLeaf;
    std::array<std::uint64_t, kMaxBmtArity> kids{};
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        kids.fill(below);
        below = hashChildren(
            std::span(kids).first(layout.params().bmtArity), level);
        defaultNode.push_back(below);
    }
    rootDigest = rootOf(defaultNode.back());
}

std::uint64_t
BonsaiTree::rootOf(std::uint64_t top) const
{
    crypto::SipHasher h(key);
    h.updateU64(top);
    h.updateU64(0xB047ull); // root domain separator
    return h.digest();
}

std::uint64_t
BonsaiTree::hashChildren(std::span<const std::uint64_t> kids,
                         unsigned level) const
{
    crypto::SipHasher h(key);
    for (std::uint64_t kid : kids)
        h.updateU64(kid);
    h.updateU64(level);
    return h.digest();
}

std::uint64_t
BonsaiTree::leafDigestOf(std::uint64_t counter_block_idx) const
{
    const CounterStore::CounterBlockImage bytes =
        counters.serializeCounterBlock(counter_block_idx);
    return crypto::siphash24(key, bytes.data(), bytes.size());
}

std::uint64_t
BonsaiTree::storedLeaf(std::uint64_t idx) const
{
    const std::uint64_t *digest = leafDigests.find(idx);
    return digest ? *digest : defaultLeaf;
}

std::uint64_t
BonsaiTree::storedNode(unsigned level, std::uint64_t idx) const
{
    shm_assert(level < nodes.size(), "BMT level {} out of range", level);
    const std::uint64_t *digest = nodes[level].find(idx);
    return digest ? *digest : defaultNode[level];
}

std::span<const std::uint64_t>
BonsaiTree::gatherChildren(
    unsigned level, std::uint64_t node_idx,
    std::array<std::uint64_t, kMaxBmtArity> &kids) const
{
    const unsigned arity = layout.params().bmtArity;
    for (unsigned k = 0; k < arity; ++k) {
        std::uint64_t kid = node_idx * arity + k;
        if (level == 0) {
            kids[k] = kid < layout.numCounterBlocks() ? storedLeaf(kid)
                                                      : defaultLeaf;
        } else {
            kids[k] = kid < layout.bmtNodesAt(level - 1)
                          ? storedNode(level - 1, kid)
                          : defaultNode[level - 1];
        }
    }
    return std::span(kids).first(arity);
}

void
BonsaiTree::updatePath(std::uint64_t counter_block_idx)
{
    const unsigned arity = layout.params().bmtArity;
    leafDigests[counter_block_idx] = leafDigestOf(counter_block_idx);

    std::array<std::uint64_t, kMaxBmtArity> kids{};
    std::uint64_t child_idx = counter_block_idx;
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        std::uint64_t node_idx = child_idx / arity;
        nodes[level][node_idx] =
            hashChildren(gatherChildren(level, node_idx, kids), level);
        child_idx = node_idx;
    }
    rootDigest = rootOf(storedNode(layout.bmtLevels() - 1, 0));
}

BmtVerifyResult
BonsaiTree::verifyPath(std::uint64_t counter_block_idx) const
{
    const unsigned arity = layout.params().bmtArity;

    // Depth 0: the leaf digest must match the counter block content.
    if (leafDigestOf(counter_block_idx) != storedLeaf(counter_block_idx))
        return {false, 0};

    // Depths 1..L: each stored node must hash its stored children.
    std::array<std::uint64_t, kMaxBmtArity> kids{};
    std::uint64_t child_idx = counter_block_idx;
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        std::uint64_t node_idx = child_idx / arity;
        if (hashChildren(gatherChildren(level, node_idx, kids), level) !=
            storedNode(level, node_idx))
            return {false, level + 1};
        child_idx = node_idx;
    }

    // Depth L+1: the on-chip root covers the top stored node.
    if (rootOf(storedNode(layout.bmtLevels() - 1, 0)) != rootDigest)
        return {false, layout.bmtLevels() + 1};

    return {true, 0};
}

void
BonsaiTree::corruptStoredNode(unsigned level, std::uint64_t node_idx,
                              std::uint64_t xor_mask)
{
    shm_assert(level < nodes.size(), "BMT level {} out of range", level);
    nodes[level][node_idx] = storedNode(level, node_idx) ^ xor_mask;
}

void
BonsaiTree::corruptLeafDigest(std::uint64_t counter_block_idx,
                              std::uint64_t xor_mask)
{
    leafDigests[counter_block_idx] =
        storedLeaf(counter_block_idx) ^ xor_mask;
}

std::size_t
BonsaiTree::materializedNodes() const
{
    std::size_t n = leafDigests.size();
    for (const auto &level : nodes)
        n += level.size();
    return n;
}

} // namespace shmgpu::meta
