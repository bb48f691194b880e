/**
 * @file
 * Sectored cache tests: hits/misses, sector masks, LRU, immediate
 * fills, write-validate, evictions, victim insertion, flush.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mem/cache.hh"
#include "stats_lookup.hh"

using namespace shmgpu;
using namespace shmgpu::mem;

namespace
{

/** Every operator new in this binary, for the allocation-count test. */
std::atomic<long> heapAllocations{0};

} // namespace

// The replacements stay out of line, so the compiler does not pair an
// inlined malloc() or free() with a caller's new- or delete-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    ++heapAllocations;
    if (void *p = std::malloc(bytes != 0 ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

CacheParams
smallParams()
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = 2048; // 16 lines
    p.blockBytes = 128;
    p.sectorBytes = 32;
    p.assoc = 4; // 4 sets
    return p;
}

} // namespace

TEST(Cache, ColdMissThenHitAfterFill)
{
    SectoredCache c(smallParams());
    auto r = c.access(0x1000, 32, false);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    EXPECT_EQ(r.fetchMask, 0x1u);
    EXPECT_FALSE(r.writeback.valid);

    // The miss installed the sector: the next access hits.
    EXPECT_EQ(c.probe(0x1000), 0x1u);
    EXPECT_EQ(c.access(0x1000, 32, false).outcome, CacheOutcome::Hit);
}

TEST(Cache, SectorGranularity)
{
    SectoredCache c(smallParams());
    c.access(0x1000, 32, false);

    // Same block, different sector: sector miss.
    auto r2 = c.access(0x1000 + 64, 32, false);
    EXPECT_EQ(r2.outcome, CacheOutcome::Miss);
    EXPECT_EQ(r2.fetchMask, 0x4u);
    EXPECT_EQ(c.probe(0x1000), 0x5u);
}

TEST(Cache, MultiSectorAccessMask)
{
    SectoredCache c(smallParams());
    auto r = c.access(0x1000, 128, false);
    EXPECT_EQ(r.fetchMask, 0xFu);
    // The whole block arrived with the first miss.
    EXPECT_EQ(c.access(0x1020, 64, false).outcome, CacheOutcome::Hit);
}

TEST(Cache, WholeBlockFetchFillsEverySector)
{
    CacheParams p = smallParams();
    p.fetchWholeBlock = true;
    SectoredCache c(p);
    auto r = c.access(0x1000 + 32, 8, false);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    EXPECT_EQ(r.fetchMask, 0xFu);
    EXPECT_EQ(c.probe(0x1000), 0xFu);

    // A write-validated sector leaves the rest of its line invalid; a
    // later read of another sector refetches the whole block.
    EXPECT_EQ(c.access(0x2000, 32, true).outcome,
              CacheOutcome::WriteNoFetch);
    EXPECT_EQ(c.access(0x2000 + 96, 32, false).fetchMask, 0xFu);
    EXPECT_EQ(c.invalidate(0x2000).dirtyMask, 0x1u);
}

TEST(Cache, CrossBlockAccessPanics)
{
    SectoredCache c(smallParams());
    EXPECT_DEATH(c.access(0x1000 + 96, 64, false), "block boundary");
}

TEST(Cache, WriteValidateAllocatesWithoutFetch)
{
    SectoredCache c(smallParams());
    auto r = c.access(0x3000, 32, true);
    EXPECT_EQ(r.outcome, CacheOutcome::WriteNoFetch);
    EXPECT_FALSE(r.writeback.valid);
    // The written sector is now valid and dirty.
    EXPECT_EQ(c.access(0x3000, 32, false).outcome, CacheOutcome::Hit);
    Writeback wb = c.invalidate(0x3000);
    EXPECT_TRUE(wb.valid);
    EXPECT_EQ(wb.dirtyMask, 0x1u);
}

TEST(Cache, RmwWriteMissFetches)
{
    CacheParams p = smallParams();
    p.fetchOnWriteMiss = true;
    SectoredCache c(p);
    auto r = c.access(0x3000, 32, true);
    EXPECT_EQ(r.outcome, CacheOutcome::Miss);
    EXPECT_EQ(r.fetchMask, 0x1u);
    // The miss installed the sector valid and dirty.
    EXPECT_EQ(c.probe(0x3000), 0x1u);
    Writeback wb = c.invalidate(0x3000);
    EXPECT_TRUE(wb.valid);
    EXPECT_EQ(wb.dirtyMask, 0x1u);
}

TEST(Cache, LruEviction)
{
    CacheParams p = smallParams();
    p.assoc = 2;
    p.sizeBytes = 2 * 128; // 1 set, 2 ways
    SectoredCache c(p);

    c.access(0x0000, 128, false);
    c.access(0x0080, 128, false);
    // Touch the first line so the second is LRU.
    EXPECT_EQ(c.access(0x0000, 32, false).outcome, CacheOutcome::Hit);
    c.access(0x0100, 128, false); // evicts 0x0080
    EXPECT_EQ(c.probe(0x0080), 0u);
    EXPECT_NE(c.probe(0x0000), 0u);
    EXPECT_NE(c.probe(0x0100), 0u);
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    CacheParams p = smallParams();
    p.assoc = 1;
    p.sizeBytes = 128; // direct-mapped single line
    SectoredCache c(p);

    c.access(0x0000, 32, true); // dirty via write-validate
    // The miss evicts the dirty line.
    Writeback wb = c.access(0x1000, 128, false).writeback;
    EXPECT_TRUE(wb.valid);
    EXPECT_EQ(wb.blockAddr, 0x0000u);
    EXPECT_EQ(wb.dirtyMask, 0x1u);
}

TEST(Cache, CleanEvictionSilent)
{
    CacheParams p = smallParams();
    p.assoc = 1;
    p.sizeBytes = 128;
    SectoredCache c(p);
    c.access(0x0000, 128, false);
    EXPECT_FALSE(c.access(0x1000, 128, false).writeback.valid);
}

TEST(Cache, InsertVictimPath)
{
    SectoredCache c(smallParams());
    Writeback wb = c.insert(0x5000, 0xF, 0x3);
    EXPECT_FALSE(wb.valid);
    EXPECT_EQ(c.probe(0x5000), 0xFu);
    Writeback out = c.invalidate(0x5000);
    EXPECT_EQ(out.dirtyMask, 0x3u);
}

TEST(Cache, FlushDirty)
{
    SectoredCache c(smallParams());
    c.access(0x0000, 32, true);
    c.access(0x1000, 32, true);
    c.access(0x2000, 128, false); // clean line

    std::vector<Writeback> wbs;
    c.flushDirty(wbs);
    EXPECT_EQ(wbs.size(), 2u);
    // Flushing again finds nothing.
    wbs.clear();
    c.flushDirty(wbs);
    EXPECT_TRUE(wbs.empty());
}

TEST(Cache, StatsRegistration)
{
    stats::StatGroup root(nullptr, "root");
    SectoredCache c(smallParams());
    c.regStats(&root);
    c.access(0x0000, 32, false);
    bool found = false;
    EXPECT_EQ(stats::lookupStat(root, "test.misses", &found), 1u);
    EXPECT_TRUE(found);
}

// Property sweep: for any geometry, filling then re-accessing always
// hits, and distinct blocks never alias.
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(CacheGeometry, FillThenHit)
{
    auto [size, assoc] = GetParam();
    CacheParams p = smallParams();
    p.sizeBytes = size;
    p.assoc = assoc;
    SectoredCache c(p);

    std::uint64_t lines = size / p.blockBytes;
    for (std::uint64_t i = 0; i < lines; ++i) {
        auto r = c.access(i * 128, 32, false);
        ASSERT_EQ(r.outcome, CacheOutcome::Miss);
        ASSERT_FALSE(r.writeback.valid);
    }
    // Everything fits: all hits.
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_EQ(c.access(i * 128, 32, false).outcome,
                  CacheOutcome::Hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(2048ull, 4u),
                      std::make_tuple(2048ull, 16u),
                      std::make_tuple(128ull * 1024, 16u),
                      std::make_tuple(4096ull, 1u),
                      std::make_tuple(4096ull, 2u)));

TEST(Cache, FifoIgnoresRecency)
{
    CacheParams p = smallParams();
    p.assoc = 2;
    p.sizeBytes = 2 * 128;
    p.policy = PolicyKind::Fifo;
    SectoredCache c(p);

    c.access(0x0000, 128, false);
    c.access(0x0080, 128, false);
    // Touch the first line: under LRU this would protect it, under
    // FIFO it is still the oldest and gets evicted.
    c.access(0x0000, 32, false);
    c.access(0x0100, 128, false);
    EXPECT_EQ(c.probe(0x0000), 0u);
    EXPECT_NE(c.probe(0x0080), 0u);
}

TEST(Cache, RandomReplacementIsDeterministicAndValid)
{
    CacheParams p = smallParams();
    p.assoc = 4;
    p.sizeBytes = 4 * 128;
    p.policy = PolicyKind::Random;
    auto run = [&] {
        SectoredCache c(p);
        std::vector<Addr> evicted;
        for (int i = 0; i < 64; ++i) {
            auto wb = c.access(static_cast<Addr>(i) * 128, 32, true).writeback;
            if (wb.valid)
                evicted.push_back(wb.blockAddr);
        }
        return evicted;
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b) << "random replacement must be reproducible";
    EXPECT_GE(a.size(), 50u) << "a 4-line cache must evict constantly";
}

TEST(Cache, RandomStreamIsPerCacheSeeded)
{
    // Two caches with different policySeed values must draw different
    // eviction sequences, and a cache's stream must not be perturbed
    // by activity in another instance (no global RNG state).
    CacheParams p = smallParams();
    p.assoc = 4;
    p.sizeBytes = 4 * 128;
    p.policy = PolicyKind::Random;

    auto evictions = [](SectoredCache &c) {
        std::vector<Addr> out;
        for (int i = 0; i < 64; ++i) {
            auto wb = c.access(static_cast<Addr>(i) * 128, 32, true).writeback;
            if (wb.valid)
                out.push_back(wb.blockAddr);
        }
        return out;
    };

    SectoredCache alone(p);
    auto baseline = evictions(alone);

    // Interleave two instances; each must reproduce its solo sequence.
    SectoredCache a(p);
    CacheParams q = p;
    q.policySeed = 0x12345678ull;
    SectoredCache b(q);
    std::vector<Addr> ev_a;
    std::vector<Addr> ev_b;
    for (int i = 0; i < 64; ++i) {
        auto wa = a.access(static_cast<Addr>(i) * 128, 32, true).writeback;
        if (wa.valid)
            ev_a.push_back(wa.blockAddr);
        auto wb = b.access(static_cast<Addr>(i) * 128, 32, true).writeback;
        if (wb.valid)
            ev_b.push_back(wb.blockAddr);
    }
    EXPECT_EQ(ev_a, baseline)
        << "interleaved instance perturbed the stream: global state?";
    EXPECT_NE(ev_b, baseline) << "policySeed must select the stream";
}

TEST(Cache, AllocationsDoNotGrowWithSetCount)
{
    // Line and replacement state live in flat per-cache arrays: one L2
    // bank (64 sets) and a 4096-set cache allocate equally often.
    for (PolicyKind kind : allPolicies()) {
        auto allocations = [kind](std::uint64_t size_bytes) {
            CacheParams p = smallParams();
            p.sizeBytes = size_bytes;
            p.assoc = 16;
            p.policy = kind;
            long before = heapAllocations.load();
            SectoredCache cache(p);
            return heapAllocations.load() - before;
        };
        EXPECT_EQ(allocations(128 * 1024), allocations(8 * 1024 * 1024))
            << policyName(kind);
    }
}
