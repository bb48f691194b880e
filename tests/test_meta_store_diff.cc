/**
 * @file
 * Differential fuzz of the dense counter store and Bonsai Merkle Tree
 * (meta::CounterStore, meta::BonsaiTree) against their hash-map
 * references (tests/reference_counters.hh, tests/reference_bmt.hh).
 *
 * Random increments, shared-counter devolutions, region-major sets,
 * major bumps, replays (restore), path updates and stored-digest
 * corruptions drive both pairs. After every step the roots, the
 * verifyPath verdicts (with failedLevel), the touched counter blocks'
 * serialized images and the materialized counts must agree. The
 * layouts include ragged trees: counter-block counts that are not a
 * multiple of the arity at any level.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "meta/bmt.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "reference_bmt.hh"
#include "reference_counters.hh"

using namespace shmgpu;

namespace
{

struct DiffLayout
{
    const char *name;
    std::uint64_t dataBytes;
    std::uint32_t arity;
};

// 16 MiB + 8 KiB: 2049 counter blocks under a 16-ary tree of 129, 9
// and 1 nodes, each level's last node ragged. 1 MiB + 128 B at arity
// 3: 129 counter blocks, levels of 43, 15, 5, 2 and 1 nodes. 64 KiB at
// arity 64: eight counter blocks under one partly filled node.
constexpr DiffLayout kLayouts[] = {
    {"ragged16", (16ull << 20) + 8192, 16},
    {"ragged3", (1ull << 20) + 128, 3},
    {"single64", 64 << 10, 64},
};

class Pair
{
  public:
    explicit Pair(const DiffLayout &l, std::uint64_t seed)
        : layout(params(l)), rng(seed), dense(layout),
          ref(layout),
          key{rng.next(), rng.next()}, denseTree(layout, dense, key),
          refTree(layout, ref, key)
    {
        // A few hot counter blocks (the first, the last — ragged —
        // and some in between) take most operations, so minors
        // overflow and paths share nodes.
        const std::uint64_t n = layout.numCounterBlocks();
        hot = {0, n - 1, n / 2, n / 3, std::min<std::uint64_t>(1, n - 1)};
    }

    /** One random operation on both sides, then the comparisons. */
    void
    step(int i)
    {
        const LocalAddr addr = pickAddr();
        const std::uint64_t idx = layout.counterBlockIndex(addr);
        const std::string where = "step " + std::to_string(i);
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {
            const auto a = dense.increment(addr);
            const auto b = ref.increment(addr);
            ASSERT_EQ(a.value, b.value) << where;
            ASSERT_EQ(a.minorOverflow, b.minorOverflow) << where;
            break;
          }
          case 3: {
            const std::uint64_t shared = rng.below(1000);
            ASSERT_EQ(dense.devolveFromShared(addr, shared).value,
                      ref.devolveFromShared(addr, shared).value)
                << where;
            break;
          }
          case 4: {
            const std::uint64_t major = rng.below(1000);
            dense.setRegionMajor(addr, major);
            ref.setRegionMajor(addr, major);
            break;
          }
          case 5:
            dense.bumpMajor(addr);
            ref.bumpMajor(addr);
            break;
          case 6: {
            const meta::CounterValue v{rng.below(1000), rng.below(128)};
            dense.restore(addr, v);
            ref.restore(addr, v);
            break;
          }
          case 7:
          case 8:
            denseTree.updatePath(idx);
            refTree.updatePath(idx);
            break;
          case 9:
            corrupt();
            break;
        }
        compare(idx, where);
    }

    /** Every counter block's image and read-back agree. */
    void
    compareAll()
    {
        for (std::uint64_t c = 0; c < layout.numCounterBlocks(); ++c)
            ASSERT_EQ(dense.serializeCounterBlock(c),
                      ref.serializeCounterBlock(c))
                << "counter block " << c;
        const std::uint64_t bytes = layout.params().dataBytes;
        ASSERT_EQ(dense.maxMajor(0, bytes), ref.maxMajor(0, bytes));
    }

  private:
    static meta::LayoutParams
    params(const DiffLayout &l)
    {
        meta::LayoutParams p;
        p.dataBytes = l.dataBytes;
        p.bmtArity = l.arity;
        return p;
    }

    LocalAddr
    pickAddr()
    {
        const std::uint64_t blocks = layout.numBlocks();
        const std::uint64_t per = layout.params().blocksPerCounterBlock;
        std::uint64_t block;
        if (rng.below(4) != 0) {
            // A hot counter block, and one of only a few slots in it.
            block = hot[rng.below(hot.size())] * per + rng.below(4);
            block = std::min(block, blocks - 1);
        } else {
            block = rng.below(blocks);
        }
        return block * layout.params().blockBytes;
    }

    void
    corrupt()
    {
        const std::uint64_t mask = rng.next() | 1;
        if (rng.below(2) == 0) {
            const std::uint64_t leaf = hot[rng.below(hot.size())];
            denseTree.corruptLeafDigest(leaf, mask);
            refTree.corruptLeafDigest(leaf, mask);
            return;
        }
        const auto level =
            static_cast<unsigned>(rng.below(layout.bmtLevels()));
        // Bias to each level's last (ragged) node.
        const std::uint64_t size = layout.bmtNodesAt(level);
        const std::uint64_t node =
            rng.below(2) == 0 ? size - 1 : rng.below(size);
        denseTree.corruptStoredNode(level, node, mask);
        refTree.corruptStoredNode(level, node, mask);
    }

    void
    compare(std::uint64_t idx, const std::string &where)
    {
        ASSERT_EQ(dense.materializedBlocks(), ref.materializedBlocks())
            << where;
        ASSERT_EQ(denseTree.materializedNodes(), refTree.materializedNodes())
            << where;
        ASSERT_EQ(denseTree.root(), refTree.root()) << where;
        const std::uint64_t last = layout.numCounterBlocks() - 1;
        const std::uint64_t other = rng.below(layout.numCounterBlocks());
        for (std::uint64_t c : {idx, last, other}) {
            ASSERT_EQ(dense.serializeCounterBlock(c),
                      ref.serializeCounterBlock(c))
                << where << ", counter block " << c;
            const meta::BmtVerifyResult a = denseTree.verifyPath(c);
            const meta::BmtVerifyResult b = refTree.verifyPath(c);
            ASSERT_EQ(a.ok, b.ok) << where << ", path of " << c;
            ASSERT_EQ(a.failedLevel, b.failedLevel)
                << where << ", path of " << c;
        }
        const LocalAddr probe = pickAddr();
        ASSERT_EQ(dense.read(probe), ref.read(probe)) << where;
    }

  public:
    meta::MetadataLayout layout;

  private:
    Rng rng;
    meta::CounterStore dense;
    test::ReferenceCounterStore ref;
    crypto::SipKey key;
    meta::BonsaiTree denseTree;
    test::ReferenceBonsaiTree refTree;
    std::vector<std::uint64_t> hot;
};

} // namespace

TEST(MetaStoreDiff, DenseStoresMatchHashMapReference)
{
    for (const DiffLayout &l : kLayouts) {
        for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
            SCOPED_TRACE(std::string(l.name) + ", seed " +
                         std::to_string(seed));
            Pair pair(l, seed);
            for (int i = 0; i < 3000; ++i) {
                pair.step(i);
                if (HasFatalFailure())
                    return;
                if (i % 500 == 499)
                    pair.compareAll();
            }
            pair.compareAll();
        }
    }
}

TEST(MetaStoreDiff, LayoutsAreRagged)
{
    // The fuzz above only covers the ragged last node if the layouts
    // really have one.
    meta::LayoutParams p;
    p.dataBytes = kLayouts[0].dataBytes;
    p.bmtArity = kLayouts[0].arity;
    meta::MetadataLayout layout(p);
    EXPECT_EQ(layout.numCounterBlocks(), 2049u);
    EXPECT_NE(layout.numCounterBlocks() % 16, 0u);
    EXPECT_EQ(layout.bmtNodesAt(0), 129u);
    EXPECT_NE(layout.bmtNodesAt(0) % 16, 0u);
}

TEST(MetaStoreDiff, OutOfRangeCorruptPanicsWithIndexAndLevelSize)
{
    meta::LayoutParams p;
    p.dataBytes = kLayouts[0].dataBytes;
    meta::MetadataLayout layout(p);
    meta::CounterStore counters(layout);
    meta::BonsaiTree tree(layout, counters, crypto::SipKey{1, 2});
    EXPECT_DEATH(tree.corruptStoredNode(0, 129, 1),
                 "BMT node 129 beyond stored level 0's 129 nodes");
    EXPECT_DEATH(tree.corruptStoredNode(1, 9, 1),
                 "BMT node 9 beyond stored level 1's 9 nodes");
    EXPECT_DEATH(tree.corruptLeafDigest(2049, 1),
                 "BMT leaf 2049 beyond the 2049 leaves");
    EXPECT_DEATH(tree.updatePath(2049), "BMT leaf 2049 beyond");
    EXPECT_DEATH(counters.serializeCounterBlock(2049),
                 "counter block 2049 beyond the 2049 counter blocks");
    // The last real entries are fine.
    tree.corruptStoredNode(0, 128, 1);
    tree.corruptLeafDigest(2048, 1);
    EXPECT_EQ(tree.materializedNodes(), 2u);
}
