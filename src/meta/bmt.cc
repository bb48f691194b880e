#include "meta/bmt.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::meta
{

BonsaiTree::Level::Level(std::uint64_t entries, unsigned arity,
                         std::uint64_t default_digest)
    : size(entries), fallback(default_digest),
      digests(divCeil(entries, arity) * arity),
      stored(divCeil(entries, arity) * arity)
{
}

BonsaiTree::BonsaiTree(const MetadataLayout &meta_layout,
                       const CounterStore &counter_store,
                       const crypto::SipKey &tree_key)
    : layout(meta_layout), counters(counter_store), key(tree_key)
{
    const unsigned arity = layout.params().bmtArity;
    levels.reserve(layout.bmtLevels() + 1);

    // Default digests for untouched (all-zero) counter state, so the
    // tree is lazily materialized: a default node hashes default
    // children.
    levels.emplace_back(layout.numCounterBlocks(), arity,
                        leafDigest(CounterStore::CounterBlockImage{}));
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        // The level below is still all default, so this hashes
        // default children.
        levels.emplace_back(layout.bmtNodesAt(level), arity,
                            nodeDigestOf(level, 0));
    }
    rootDigest = rootOf(levels.back().fallback);
}

void
BonsaiTree::store(unsigned l, std::uint64_t idx, std::uint64_t digest)
{
    Level &lv = levels[l];
    storedDigests += !lv.stored[idx];
    lv.stored[idx] = true;
    lv.digests[idx] = digest ^ lv.fallback;
}

void
BonsaiTree::checkIndex(unsigned l, std::uint64_t idx) const
{
    if (l == 0)
        shm_assert(idx < levels[0].size, "BMT leaf {} beyond the {} leaves",
                   idx, levels[0].size);
    else
        shm_assert(idx < levels[l].size,
                   "BMT node {} beyond stored level {}'s {} nodes", idx,
                   l - 1, levels[l].size);
}

std::uint64_t
BonsaiTree::rootOf(std::uint64_t top) const
{
    crypto::SipState s(key);
    s.word(top);
    s.word(0xB047ull); // root domain separator
    return s.finish(16);
}

std::uint64_t
BonsaiTree::nodeDigestOf(unsigned level, std::uint64_t node_idx) const
{
    // The children are one contiguous run of the level below; past
    // its end the padding reads as the default digest.
    const unsigned arity = layout.params().bmtArity;
    const Level &kids = levels[level];
    const std::uint64_t *run = kids.digests.data() + node_idx * arity;
    crypto::SipState s(key);
    for (unsigned k = 0; k < arity; ++k)
        s.word(run[k] ^ kids.fallback);
    s.word(level);
    return s.finish(8 * (arity + 1));
}

std::uint64_t
BonsaiTree::leafDigest(const CounterStore::CounterBlockImage &image) const
{
    // The 72-byte image is nine whole words.
    static_assert(sizeof(image) % 8 == 0);
    crypto::SipState s(key);
    for (std::size_t i = 0; i < image.size(); i += 8)
        s.word(crypto::loadLe64(image.data() + i));
    return s.finish(image.size());
}

std::uint64_t
BonsaiTree::leafDigestOf(std::uint64_t counter_block_idx) const
{
    return leafDigest(counters.serializeCounterBlock(counter_block_idx));
}

void
BonsaiTree::updatePath(std::uint64_t counter_block_idx)
{
    checkIndex(0, counter_block_idx);
    const unsigned arity = layout.params().bmtArity;
    store(0, counter_block_idx, leafDigestOf(counter_block_idx));

    std::uint64_t child_idx = counter_block_idx;
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        std::uint64_t node_idx = child_idx / arity;
        store(level + 1, node_idx, nodeDigestOf(level, node_idx));
        child_idx = node_idx;
    }
    rootDigest = rootOf(digestAt(layout.bmtLevels(), 0));
}

BmtVerifyResult
BonsaiTree::verifyPath(std::uint64_t counter_block_idx) const
{
    checkIndex(0, counter_block_idx);
    const unsigned arity = layout.params().bmtArity;

    // Depth 0: the leaf digest must match the counter block content.
    if (leafDigestOf(counter_block_idx) != digestAt(0, counter_block_idx))
        return {false, 0};

    // Depths 1..L: each stored node must hash its stored children.
    std::uint64_t child_idx = counter_block_idx;
    for (unsigned level = 0; level < layout.bmtLevels(); ++level) {
        std::uint64_t node_idx = child_idx / arity;
        if (nodeDigestOf(level, node_idx) != digestAt(level + 1, node_idx))
            return {false, level + 1};
        child_idx = node_idx;
    }

    // Depth L+1: the on-chip root covers the top stored node.
    if (rootOf(digestAt(layout.bmtLevels(), 0)) != rootDigest)
        return {false, layout.bmtLevels() + 1};

    return {true, 0};
}

void
BonsaiTree::corruptStoredNode(unsigned level, std::uint64_t node_idx,
                              std::uint64_t xor_mask)
{
    shm_assert(level < layout.bmtLevels(), "BMT level {} out of range",
               level);
    checkIndex(level + 1, node_idx);
    store(level + 1, node_idx, digestAt(level + 1, node_idx) ^ xor_mask);
}

void
BonsaiTree::corruptLeafDigest(std::uint64_t counter_block_idx,
                              std::uint64_t xor_mask)
{
    checkIndex(0, counter_block_idx);
    store(0, counter_block_idx, digestAt(0, counter_block_idx) ^ xor_mask);
}

} // namespace shmgpu::meta
