/**
 * @file
 * Property-based cache fuzzing: under a long random access mix, the
 * cache must preserve the conservation invariants that the DRAM
 * accounting depends on — every dirty sector leaves the chip exactly
 * once, and hits never materialize out of thin air.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hh"
#include "mem/cache.hh"

using namespace shmgpu;
using namespace shmgpu::mem;

namespace
{

struct FuzzConfig
{
    std::uint64_t sizeBytes;
    unsigned assoc;
    bool rmw;
};

} // namespace

class CacheFuzz
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, unsigned, bool, std::uint64_t,
                     PolicyKind>>
{
};

TEST_P(CacheFuzz, ConservationInvariants)
{
    auto [size, assoc, rmw, seed, policy] = GetParam();
    CacheParams p;
    p.name = "fuzz";
    p.sizeBytes = size;
    p.assoc = assoc;
    p.fetchOnWriteMiss = rmw;
    p.policy = policy;
    SectoredCache cache(p);
    Rng rng(seed);

    constexpr int kBlocks = 256;
    // Ground truth: sectors ever written, per block.
    std::map<Addr, std::uint32_t> written;
    // Dirty sectors that left the cache, per block (must never exceed
    // what was written, and each write-back adds disjoint... sectors
    // may be rewritten after eviction, so we track totals).
    std::map<Addr, std::uint32_t> evicted_dirty;
    std::set<Addr> filled; //!< blocks ever filled or write-validated

    auto on_writeback = [&](const Writeback &wb) {
        if (!wb.valid)
            return;
        // A write-back may only carry sectors that were written.
        EXPECT_EQ(wb.dirtyMask & ~written[wb.blockAddr], 0u)
            << "write-back of never-written sectors";
        evicted_dirty[wb.blockAddr] |= wb.dirtyMask;
    };

    for (int step = 0; step < 20000; ++step) {
        Addr block = rng.below(kBlocks) * 128;
        std::uint32_t sector = static_cast<std::uint32_t>(rng.below(4));
        Addr addr = block + sector * 32;
        bool is_write = rng.chance(0.4);

        auto res = cache.access(addr, 32, is_write);
        if (res.outcome == CacheOutcome::Hit) {
            EXPECT_TRUE(filled.contains(block))
                << "hit on a block never filled";
        } else {
            filled.insert(block); // immediate fill or write-validate
        }
        if (is_write)
            written[block] |= (1u << sector);
        on_writeback(res.writeback);
    }

    // Drain: flush everything and check total conservation — every
    // written sector is accounted dirty exactly once at the end
    // (still in cache, or evicted; never duplicated, never lost).
    std::vector<Writeback> wbs;
    cache.flushDirty(wbs);
    std::map<Addr, std::uint32_t> final_dirty = evicted_dirty;
    for (const auto &wb : wbs) {
        EXPECT_EQ(wb.dirtyMask & ~written[wb.blockAddr], 0u);
        final_dirty[wb.blockAddr] |= wb.dirtyMask;
    }
    for (const auto &[block, mask] : written) {
        EXPECT_EQ(final_dirty[block], mask)
            << "written sectors of block " << block
            << " not fully accounted";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, CacheFuzz,
    ::testing::Values(
        std::make_tuple(2048ull, 4u, false, 1ull, PolicyKind::Lru),
        std::make_tuple(2048ull, 4u, true, 2ull, PolicyKind::Lru),
        std::make_tuple(4096ull, 2u, false, 3ull, PolicyKind::Lru),
        std::make_tuple(16384ull, 16u, false, 4ull, PolicyKind::Lru),
        std::make_tuple(128ull, 1u, false, 5ull, PolicyKind::Lru),
        std::make_tuple(2048ull, 4u, false, 6ull, PolicyKind::S3Fifo),
        std::make_tuple(16384ull, 16u, false, 7ull, PolicyKind::S3Fifo),
        std::make_tuple(128ull, 1u, true, 8ull, PolicyKind::S3Fifo),
        std::make_tuple(2048ull, 4u, false, 9ull, PolicyKind::Sieve),
        std::make_tuple(16384ull, 16u, true, 10ull, PolicyKind::Sieve),
        std::make_tuple(128ull, 1u, false, 11ull, PolicyKind::Sieve),
        std::make_tuple(4096ull, 2u, false, 12ull, PolicyKind::Fifo),
        std::make_tuple(4096ull, 2u, false, 13ull, PolicyKind::Random)));

// ---------------------------------------------------------------------
// Differential property test: SectoredCache (shift/mask indexing,
// hot/cold line split, immediate fills) against a naive reference
// model written with division/modulo math and ordered maps. Every
// observable — outcomes, fetch masks, write-backs, probes, flush
// order — must match on every step of a long random access mix.
// ---------------------------------------------------------------------

namespace
{

/**
 * Deliberately naive sectored cache with the documented semantics of
 * SectoredCache: div/mod indexing, per-set line vectors, and
 * tag-keyed (not way-keyed) replacement bookkeeping for the queue
 * policies. Shares no code with the real implementation.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : p(params), rrng(params.policySeed)
    {
        sectorsPerBlock = p.blockBytes / p.sectorBytes;
        numSets = p.sizeBytes / p.blockBytes / p.assoc;
        sets.resize(numSets, std::vector<RefLine>(p.assoc));
        s3.resize(numSets);
        sieve.resize(numSets);
    }

    CacheAccessResult
    access(Addr addr, std::uint32_t bytes, bool is_write)
    {
        Addr block = addr - addr % p.blockBytes;
        std::uint32_t want = maskFor(addr, bytes);
        RefLine *line = lookup(block);

        if (line && (line->validMask & want) == want) {
            onHit(block, line);
            if (is_write)
                line->dirtyMask |= want;
            return {CacheOutcome::Hit, 0, {}};
        }

        CacheAccessResult out;
        if (is_write && !p.fetchOnWriteMiss) {
            out.outcome = CacheOutcome::WriteNoFetch;
            if (!p.writeAllocate)
                return out;
            if (!line)
                line = victim(block, out.writeback);
            line->validMask |= want;
            line->dirtyMask |= want;
            onInstall(block, line);
            return out;
        }

        // Miss: install now, fetch what was missing (or everything).
        out.outcome = CacheOutcome::Miss;
        if (!line)
            line = victim(block, out.writeback);
        out.fetchMask = p.fetchWholeBlock
                            ? (1u << sectorsPerBlock) - 1
                            : want & ~line->validMask;
        line->validMask |= out.fetchMask | want;
        if (is_write)
            line->dirtyMask |= want;
        onInstall(block, line);
        return out;
    }

    std::uint32_t
    probe(Addr addr) const
    {
        Addr block = addr - addr % p.blockBytes;
        const RefLine *line = const_cast<RefCache *>(this)->lookup(block);
        return line ? line->validMask : 0;
    }

    Writeback
    insert(Addr block_addr, std::uint32_t valid_mask,
           std::uint32_t dirty_mask)
    {
        Addr block = block_addr - block_addr % p.blockBytes;
        Writeback wb;
        RefLine *line = lookup(block);
        if (!line)
            line = victim(block, wb);
        line->validMask |= valid_mask;
        line->dirtyMask |= dirty_mask;
        onInstall(block, line);
        return wb;
    }

    Writeback
    invalidate(Addr block_addr)
    {
        Addr block = block_addr - block_addr % p.blockBytes;
        Writeback wb;
        RefLine *line = lookup(block);
        if (line) {
            if (line->dirtyMask) {
                wb.valid = true;
                wb.blockAddr = block;
                wb.dirtyMask = line->dirtyMask;
            }
            onEvict(block);
            *line = RefLine{};
        }
        return wb;
    }

    /** Drop every line, set by set in way order, appending dirty
     *  write-backs; the policy models hear each drop. */
    void
    invalidateAll(std::vector<Writeback> &out)
    {
        for (auto &set : sets) {
            for (auto &line : set) {
                if (!line.valid)
                    continue;
                Writeback wb = invalidate(line.tag);
                if (wb.valid)
                    out.push_back(wb);
            }
        }
    }

    void
    flushDirty(std::vector<Writeback> &out)
    {
        for (auto &set : sets) {
            for (auto &line : set) {
                if (line.valid && line.dirtyMask) {
                    out.push_back({true, line.tag, line.dirtyMask});
                    line.dirtyMask = 0;
                }
            }
        }
    }

  private:
    struct RefLine
    {
        bool valid = false;
        Addr tag = 0;
        std::uint32_t validMask = 0;
        std::uint32_t dirtyMask = 0;
        std::uint64_t stamp = 0;
    };

    std::uint32_t
    maskFor(Addr addr, std::uint32_t bytes) const
    {
        Addr block = addr - addr % p.blockBytes;
        std::uint32_t mask = 0;
        for (std::uint32_t s = 0; s < sectorsPerBlock; ++s) {
            Addr lo = block + static_cast<Addr>(s) * p.sectorBytes;
            Addr hi = lo + p.sectorBytes;
            if (addr < hi && addr + bytes > lo)
                mask |= 1u << s;
        }
        return mask;
    }

    RefLine *
    lookup(Addr block)
    {
        auto &set = sets[block / p.blockBytes % numSets];
        for (auto &line : set)
            if (line.valid && line.tag == block)
                return &line;
        return nullptr;
    }

    RefLine *
    victim(Addr block, Writeback &wb)
    {
        std::uint64_t si = block / p.blockBytes % numSets;
        auto &set = sets[si];
        RefLine *pick = nullptr;
        // Invalid ways first, regardless of policy.
        for (auto &line : set) {
            if (!line.valid) {
                pick = &line;
                break;
            }
        }
        if (!pick) {
            switch (p.policy) {
              case PolicyKind::Random:
                pick = &set[rrng.below(p.assoc)];
                break;
              case PolicyKind::S3Fifo:
                pick = findByTag(set, s3Victim(si));
                break;
              case PolicyKind::Sieve:
                pick = findByTag(set, sieveVictim(si));
                break;
              case PolicyKind::Lru:
              case PolicyKind::Fifo:
                for (auto &line : set) {
                    if (!pick || line.stamp < pick->stamp)
                        pick = &line;
                }
                break;
            }
        }
        if (pick->valid && pick->dirtyMask) {
            wb.valid = true;
            wb.blockAddr = pick->tag;
            wb.dirtyMask = pick->dirtyMask;
        }
        std::uint64_t keep_stamp = pick->stamp;
        *pick = RefLine{};
        pick->stamp = keep_stamp;
        pick->valid = true;
        pick->tag = block;
        return pick;
    }

    // --- tag-keyed policy models ------------------------------------

    /** S3FIFO state for one set, keyed by block address. */
    struct S3Set
    {
        std::vector<Addr> small; //!< front = oldest
        std::vector<Addr> main;  //!< front = oldest
        std::map<Addr, int> freq;
        std::vector<Addr> ghost; //!< front = oldest
    };

    /** SIEVE state for one set, keyed by block address. */
    struct SieveSet
    {
        std::vector<Addr> order; //!< front = oldest (tail side)
        std::map<Addr, bool> visited;
        Addr hand = 0;
        bool handValid = false;
    };

    static void
    dropTag(std::vector<Addr> &v, Addr tag)
    {
        for (auto it = v.begin(); it != v.end(); ++it) {
            if (*it == tag) {
                v.erase(it);
                return;
            }
        }
    }

    static bool
    hasTag(const std::vector<Addr> &v, Addr tag)
    {
        for (Addr a : v)
            if (a == tag)
                return true;
        return false;
    }

    static RefLine *
    findByTag(std::vector<RefLine> &set, Addr tag)
    {
        for (auto &line : set)
            if (line.valid && line.tag == tag)
                return &line;
        ADD_FAILURE() << "policy model evicted an untracked tag";
        return &set.front();
    }

    void
    onHit(Addr block, RefLine *line)
    {
        std::uint64_t si = block / p.blockBytes % numSets;
        switch (p.policy) {
          case PolicyKind::Lru:
            line->stamp = ++clock;
            break;
          case PolicyKind::S3Fifo: {
            int &f = s3[si].freq[block];
            f = std::min(f + 1, 3);
            break;
          }
          case PolicyKind::Sieve:
            sieve[si].visited[block] = true;
            break;
          default:
            break;
        }
    }

    void
    onInstall(Addr block, RefLine *line)
    {
        std::uint64_t si = block / p.blockBytes % numSets;
        line->stamp = ++clock;
        if (p.policy == PolicyKind::S3Fifo) {
            S3Set &s = s3[si];
            if (s.freq.count(block)) {
                // Refresh of a tracked block counts as a reference.
                s.freq[block] = std::min(s.freq[block] + 1, 3);
                return;
            }
            s.freq[block] = 0;
            if (hasTag(s.ghost, block)) {
                dropTag(s.ghost, block);
                s.main.push_back(block);
            } else {
                s.small.push_back(block);
            }
        } else if (p.policy == PolicyKind::Sieve) {
            SieveSet &s = sieve[si];
            if (s.visited.count(block)) {
                s.visited[block] = true;
                return;
            }
            s.order.push_back(block);
            s.visited[block] = false;
        }
    }

    void
    onEvict(Addr block)
    {
        std::uint64_t si = block / p.blockBytes % numSets;
        if (p.policy == PolicyKind::S3Fifo) {
            S3Set &s = s3[si];
            dropTag(s.small, block);
            dropTag(s.main, block);
            s.freq.erase(block);
        } else if (p.policy == PolicyKind::Sieve) {
            SieveSet &s = sieve[si];
            if (s.handValid && s.hand == block)
                advanceHandPast(s, block);
            dropTag(s.order, block);
            s.visited.erase(block);
        }
    }

    /** Move the hand to @p block's next-newer neighbour (or park it). */
    void
    advanceHandPast(SieveSet &s, Addr block)
    {
        for (std::size_t i = 0; i < s.order.size(); ++i) {
            if (s.order[i] == block) {
                if (i + 1 < s.order.size()) {
                    s.hand = s.order[i + 1];
                    s.handValid = true;
                } else {
                    s.handValid = false;
                }
                return;
            }
        }
        s.handValid = false;
    }

    Addr
    s3Victim(std::uint64_t si)
    {
        S3Set &s = s3[si];
        std::size_t small_target =
            std::max<std::size_t>(1, p.assoc / 8);
        while (true) {
            if (!s.small.empty() &&
                (s.small.size() >= small_target || s.main.empty())) {
                Addr tag = s.small.front();
                s.small.erase(s.small.begin());
                if (s.freq[tag] > 0) {
                    s.main.push_back(tag);
                    s.freq[tag] = 0;
                    continue;
                }
                s.freq.erase(tag);
                // Remember in the ghost FIFO (capacity = assoc).
                if (hasTag(s.ghost, tag)) {
                    dropTag(s.ghost, tag);
                } else if (s.ghost.size() >= p.assoc) {
                    s.ghost.erase(s.ghost.begin());
                }
                s.ghost.push_back(tag);
                return tag;
            }
            Addr tag = s.main.front();
            s.main.erase(s.main.begin());
            if (s.freq[tag] > 0) {
                --s.freq[tag];
                s.main.push_back(tag);
                continue;
            }
            s.freq.erase(tag);
            return tag;
        }
    }

    Addr
    sieveVictim(std::uint64_t si)
    {
        SieveSet &s = sieve[si];
        std::size_t i = 0;
        if (s.handValid) {
            while (i < s.order.size() && s.order[i] != s.hand)
                ++i;
            if (i == s.order.size())
                i = 0;
        }
        while (s.visited[s.order[i]]) {
            s.visited[s.order[i]] = false;
            i = i + 1 < s.order.size() ? i + 1 : 0;
        }
        Addr tag = s.order[i];
        if (i + 1 < s.order.size()) {
            s.hand = s.order[i + 1];
            s.handValid = true;
        } else {
            s.handValid = false;
        }
        s.order.erase(s.order.begin() + static_cast<std::ptrdiff_t>(i));
        s.visited.erase(tag);
        return tag;
    }

    CacheParams p;
    std::uint32_t sectorsPerBlock;
    std::uint64_t numSets;
    std::vector<std::vector<RefLine>> sets;
    std::vector<S3Set> s3;
    std::vector<SieveSet> sieve;
    std::uint64_t clock = 0;
    Rng rrng;
};

void
expectSameWriteback(const Writeback &real, const Writeback &ref,
                    const char *what)
{
    ASSERT_EQ(real.valid, ref.valid) << what;
    if (real.valid) {
        EXPECT_EQ(real.blockAddr, ref.blockAddr) << what;
        EXPECT_EQ(real.dirtyMask, ref.dirtyMask) << what;
    }
}

void
expectSameWritebacks(const std::vector<Writeback> &real,
                     const std::vector<Writeback> &ref, const char *what)
{
    ASSERT_EQ(real.size(), ref.size()) << what;
    for (std::size_t i = 0; i < real.size(); ++i) {
        EXPECT_EQ(real[i].blockAddr, ref[i].blockAddr)
            << what << ": order diverged at entry " << i;
        EXPECT_EQ(real[i].dirtyMask, ref[i].dirtyMask) << what;
    }
}

/**
 * Drive @p p's SectoredCache and the reference model through @p steps
 * random operations over @p blocks distinct blocks — accesses, probes,
 * invalidations, direct inserts and, rarely, a whole-cache flushDirty
 * or invalidateAll — with sector and whole-block fetch, comparing
 * every observable after every step, then the final flush.
 */
void
runDifferential(CacheParams p, std::uint64_t seed, std::uint64_t blocks,
                int steps)
{
    for (bool whole_block : {false, true}) {
        SCOPED_TRACE(whole_block ? "whole-block fetch" : "sector fetch");
        p.fetchWholeBlock = whole_block;

        SectoredCache cache(p);
        RefCache ref(p);
        Rng rng(seed);

        for (int step = 0; step < steps; ++step) {
            Addr block = rng.below(blocks) * 128;
            std::uint64_t roll = rng.below(10000);

            if (roll < 8500) {
                // Access: random sector span or a sub-sector sliver.
                std::uint32_t first =
                    static_cast<std::uint32_t>(rng.below(4));
                std::uint32_t last =
                    first +
                    static_cast<std::uint32_t>(rng.below(4 - first));
                Addr addr = block + first * 32;
                std::uint32_t bytes = (last - first + 1) * 32;
                if (rng.chance(0.2)) {
                    addr += rng.below(24);
                    bytes = 1 + static_cast<std::uint32_t>(rng.below(8));
                }
                bool is_write = rng.chance(0.4);

                auto real = cache.access(addr, bytes, is_write);
                auto want = ref.access(addr, bytes, is_write);
                ASSERT_EQ(real.outcome, want.outcome)
                    << "step " << step << " block " << block;
                ASSERT_EQ(real.fetchMask, want.fetchMask)
                    << "step " << step;
                expectSameWriteback(real.writeback, want.writeback,
                                    "access eviction");
            } else if (roll < 9000) {
                Addr addr = block + rng.below(128);
                ASSERT_EQ(cache.probe(addr), ref.probe(addr))
                    << "probe mismatch at step " << step;
            } else if (roll < 9490) {
                expectSameWriteback(cache.invalidate(block),
                                    ref.invalidate(block), "invalidate");
            } else if (roll < 9990) {
                std::uint32_t valid =
                    static_cast<std::uint32_t>(rng.below(16)) | 1u;
                std::uint32_t dirty =
                    static_cast<std::uint32_t>(rng.below(16)) & valid;
                expectSameWriteback(cache.insert(block, valid, dirty),
                                    ref.insert(block, valid, dirty),
                                    "insert eviction");
            } else {
                // Whole-cache operations: content *and* order.
                std::vector<Writeback> real_out;
                std::vector<Writeback> ref_out;
                if (roll < 9998) {
                    cache.flushDirty(real_out);
                    ref.flushDirty(ref_out);
                    expectSameWritebacks(real_out, ref_out, "flushDirty");
                } else {
                    cache.invalidateAll(real_out);
                    ref.invalidateAll(ref_out);
                    expectSameWritebacks(real_out, ref_out,
                                         "invalidateAll");
                }
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }

        // The final flush must agree on content *and* order.
        std::vector<Writeback> real_flush;
        std::vector<Writeback> ref_flush;
        cache.flushDirty(real_flush);
        ref.flushDirty(ref_flush);
        expectSameWritebacks(real_flush, ref_flush, "final flush");
    }
}

} // namespace

class CacheDifferential
    : public ::testing::TestWithParam<
          std::tuple<PolicyKind, bool, bool, std::uint64_t>>
{
  protected:
    CacheParams
    params() const
    {
        auto [policy, write_allocate, rmw, seed] = GetParam();
        CacheParams p;
        p.name = "diff";
        p.writeAllocate = write_allocate;
        p.fetchOnWriteMiss = rmw;
        p.policy = policy;
        return p;
    }
};

TEST_P(CacheDifferential, MatchesNaiveReferenceModel)
{
    // A metadata-cache-sized geometry: 4 KiB, 4-way, 8 sets, and a
    // few times its 32 lines in distinct blocks.
    CacheParams p = params();
    p.sizeBytes = 4096;
    p.assoc = 4;
    runDifferential(p, std::get<3>(GetParam()), 96, 30000);
}

TEST_P(CacheDifferential, L2GeometryMatchesNaiveReferenceModel)
{
    // One L2 bank: 128 KiB, 16-way, 64 sets, over three times its
    // 1024 lines, so every set fills, thrashes and is invalidated.
    CacheParams p = params();
    p.sizeBytes = 128 * 1024;
    p.assoc = 16;
    runDifferential(p, std::get<3>(GetParam()) + 1000, 3072, 60000);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheDifferential,
    ::testing::Values(
        std::make_tuple(PolicyKind::Lru, true, false, 11ull),
        std::make_tuple(PolicyKind::Lru, false, false, 12ull),
        std::make_tuple(PolicyKind::Lru, true, true, 13ull),
        std::make_tuple(PolicyKind::Fifo, true, false, 14ull),
        std::make_tuple(PolicyKind::Fifo, false, false, 24ull),
        std::make_tuple(PolicyKind::Fifo, true, true, 25ull),
        std::make_tuple(PolicyKind::Random, true, false, 15ull),
        std::make_tuple(PolicyKind::Random, false, false, 26ull),
        std::make_tuple(PolicyKind::Random, true, true, 16ull),
        std::make_tuple(PolicyKind::S3Fifo, true, false, 17ull),
        std::make_tuple(PolicyKind::S3Fifo, false, false, 18ull),
        std::make_tuple(PolicyKind::S3Fifo, true, true, 19ull),
        std::make_tuple(PolicyKind::Sieve, true, false, 20ull),
        std::make_tuple(PolicyKind::Sieve, false, false, 21ull),
        std::make_tuple(PolicyKind::Sieve, true, true, 22ull)));
