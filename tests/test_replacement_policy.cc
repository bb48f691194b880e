/**
 * @file
 * Model-differential fuzz for mem::ReplacementState.
 *
 * One cache's replacement state is driven directly (no SectoredCache
 * in the loop) through its (set, way) hooks, against one independent
 * naive reference model per set keyed by block address instead of way
 * index. The fuzz loop interleaves randomized access strings over several
 * sets, honoring the cache<->policy contract — installs into the first
 * invalid way, victim() only with every way of the set valid, onEvict
 * tombstones followed by reuse of the freed way — and checks that the
 * state and the models evict the same block at every decision point,
 * so a slice that leaks into a neighbouring set shows too.
 *
 * The reference models are deliberately naive (std::map state, linear
 * scans, queues of block addresses) so a bookkeeping bug in the real
 * way-indexed structures (S3FIFO's queue threading, SIEVE's hand
 * repair on external invalidation) cannot be mirrored by construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mem/replacement.hh"

using namespace shmgpu;
using mem::PolicyKind;

namespace
{

constexpr std::uint64_t testSeed = 0xA5A5F00Dull;
constexpr std::uint32_t noWay = ~0u;
/** Sets per fuzzed state; each gets its own model and access string. */
constexpr std::size_t fuzzSets = 3;

/** Stamp-order reference shared by LRU and FIFO: a block list in
 *  stamp order (front = oldest). onInsert always refreshes (matching
 *  StampPolicy), onHit refreshes only under LRU. */
class RefStamp
{
  public:
    RefStamp(bool refresh_on_hit) : refreshOnHit(refresh_on_hit) {}

    void
    onHit(Addr block)
    {
        if (refreshOnHit)
            touch(block);
    }

    void onInsert(Addr block) { touch(block); }

    Addr
    victim()
    {
        Addr block = order.front();
        drop(block);
        return block;
    }

    void onEvict(Addr block) { drop(block); }

  private:
    void
    touch(Addr block)
    {
        drop(block);
        order.push_back(block);
    }

    void
    drop(Addr block)
    {
        auto it = std::find(order.begin(), order.end(), block);
        if (it != order.end())
            order.erase(it);
    }

    std::vector<Addr> order; //!< front = oldest stamp
    bool refreshOnHit;
};

/** S3FIFO reference keyed by block address. */
class RefS3Fifo
{
  public:
    explicit RefS3Fifo(std::uint32_t assoc)
        : smallTarget(std::max(1u, assoc / 8)), ghostCap(assoc)
    {
    }

    void
    onHit(Addr block)
    {
        freq[block] = std::min(freq[block] + 1, 3);
    }

    void
    onInsert(Addr block, bool tracked)
    {
        if (tracked) {
            freq[block] = std::min(freq[block] + 1, 3);
            return;
        }
        freq[block] = 0;
        if (inGhost(block)) {
            ghost.erase(std::find(ghost.begin(), ghost.end(), block));
            mainQ.push_back(block);
        } else {
            smallQ.push_back(block);
        }
    }

    Addr
    victim()
    {
        while (true) {
            if (!smallQ.empty() &&
                (smallQ.size() >= smallTarget || mainQ.empty())) {
                Addr block = smallQ.front();
                smallQ.erase(smallQ.begin());
                if (freq[block] > 0) {
                    freq[block] = 0;
                    mainQ.push_back(block);
                    continue;
                }
                remember(block);
                freq.erase(block);
                return block;
            }
            Addr block = mainQ.front();
            mainQ.erase(mainQ.begin());
            if (freq[block] > 0) {
                --freq[block];
                mainQ.push_back(block);
                continue;
            }
            freq.erase(block);
            return block;
        }
    }

    void
    onEvict(Addr block)
    {
        auto drop = [block](std::vector<Addr> &q) {
            auto it = std::find(q.begin(), q.end(), block);
            if (it != q.end())
                q.erase(it);
        };
        drop(smallQ);
        drop(mainQ);
        freq.erase(block);
    }

  private:
    bool
    inGhost(Addr block) const
    {
        return std::find(ghost.begin(), ghost.end(), block) !=
               ghost.end();
    }

    void
    remember(Addr block)
    {
        auto it = std::find(ghost.begin(), ghost.end(), block);
        if (it != ghost.end())
            ghost.erase(it);
        else if (ghost.size() >= ghostCap)
            ghost.erase(ghost.begin());
        ghost.push_back(block);
    }

    std::vector<Addr> smallQ; //!< front = oldest
    std::vector<Addr> mainQ;  //!< front = oldest
    std::vector<Addr> ghost;  //!< front = oldest remembered eviction
    std::map<Addr, int> freq;
    std::size_t smallTarget;
    std::size_t ghostCap;
};

/** SIEVE reference: one block list oldest-first, a visited flag per
 *  block, and the hand stored as a block address. */
class RefSieve
{
  public:
    void
    onHit(Addr block)
    {
        visited[block] = true;
    }

    void
    onInsert(Addr block, bool tracked)
    {
        if (tracked) {
            visited[block] = true;
            return;
        }
        order.push_back(block);
        visited[block] = false;
    }

    Addr
    victim()
    {
        std::size_t i = handValid ? indexOf(hand) : 0;
        while (visited[order[i]]) {
            visited[order[i]] = false;
            i = i + 1 < order.size() ? i + 1 : 0;
        }
        Addr block = order[i];
        // The hand rests on the next-newer survivor; past the head it
        // restarts at the tail (oldest).
        if (i + 1 < order.size()) {
            hand = order[i + 1];
            handValid = true;
        } else {
            handValid = false;
        }
        drop(block);
        return block;
    }

    void
    onEvict(Addr block)
    {
        if (handValid && hand == block) {
            std::size_t i = indexOf(block);
            if (i + 1 < order.size())
                hand = order[i + 1];
            else
                handValid = false;
        }
        drop(block);
    }

  private:
    std::size_t
    indexOf(Addr block) const
    {
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i] == block)
                return i;
        }
        ADD_FAILURE() << "sieve reference lost block " << block;
        return 0;
    }

    void
    drop(Addr block)
    {
        auto it = std::find(order.begin(), order.end(), block);
        if (it != order.end())
            order.erase(it);
        visited.erase(block);
    }

    std::vector<Addr> order; //!< front = oldest (the tail)
    std::map<Addr, bool> visited;
    Addr hand = 0;
    bool handValid = false;
};

/** One set's reference models and way contents. */
struct RefSet
{
    RefSet(PolicyKind kind, std::uint32_t assoc)
        : stamp(kind == PolicyKind::Lru), s3(assoc),
          wayBlock(assoc, 0), wayValid(assoc, false)
    {
    }

    RefStamp stamp;
    RefS3Fifo s3;
    RefSieve sieve;
    std::vector<Addr> wayBlock;
    std::vector<bool> wayValid;
};

/**
 * Drives one cache's replacement state and a reference model per set
 * through a randomized access string of @p steps per set, checking
 * every victim() decision. Returns the decision log (victim line,
 * set * assoc + way, per eviction) so callers can compare reruns for
 * determinism.
 */
std::vector<std::uint32_t>
fuzzPolicy(PolicyKind kind, std::uint32_t assoc, std::uint32_t seed,
           std::size_t steps)
{
    Rng reference_rng(testSeed);
    mem::ReplacementState state(kind, fuzzSets, assoc, testSeed);

    std::vector<RefSet> sets(fuzzSets, RefSet(kind, assoc));
    std::vector<std::uint32_t> decisions;

    std::mt19937 urbg(seed);
    auto rand_below = [&urbg](std::uint32_t bound) {
        return static_cast<std::uint32_t>(urbg() % bound);
    };

    // Small block pool so reuse (including reuse after a tombstone)
    // is common; blocks are nonzero so Addr 0 never collides with an
    // empty slot.
    const std::uint32_t pool = 3 * assoc + 2;

    auto ref_insert = [&](RefSet &ref, Addr block, bool tracked) {
        switch (kind) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo: ref.stamp.onInsert(block); break;
          case PolicyKind::Random: break;
          case PolicyKind::S3Fifo: ref.s3.onInsert(block, tracked); break;
          case PolicyKind::Sieve: ref.sieve.onInsert(block, tracked); break;
        }
    };

    for (std::size_t step = 0; step < steps * fuzzSets; ++step) {
        std::size_t set = rand_below(fuzzSets);
        RefSet &ref = sets[set];
        std::vector<Addr> &way_block = ref.wayBlock;
        std::vector<bool> &way_valid = ref.wayValid;

        // Tombstone: external invalidation of a random valid way,
        // whose slot a later install must be able to reuse.
        if (rand_below(10) == 0) {
            std::vector<std::uint32_t> valid_ways;
            for (std::uint32_t w = 0; w < assoc; ++w) {
                if (way_valid[w])
                    valid_ways.push_back(w);
            }
            if (!valid_ways.empty()) {
                std::uint32_t w =
                    valid_ways[rand_below(static_cast<std::uint32_t>(
                        valid_ways.size()))];
                state.onEvict(set, w);
                switch (kind) {
                  case PolicyKind::Lru:
                  case PolicyKind::Fifo:
                    ref.stamp.onEvict(way_block[w]);
                    break;
                  case PolicyKind::Random: break;
                  case PolicyKind::S3Fifo:
                    ref.s3.onEvict(way_block[w]);
                    break;
                  case PolicyKind::Sieve:
                    ref.sieve.onEvict(way_block[w]);
                    break;
                }
                way_valid[w] = false;
                continue;
            }
        }

        Addr block = 1 + rand_below(pool);

        // Hit or refresh of a resident block.
        std::uint32_t hit_way = noWay;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (way_valid[w] && way_block[w] == block) {
                hit_way = w;
                break;
            }
        }
        if (hit_way != noWay) {
            if (rand_below(5) == 0) {
                // Refresh (re-fill / write-validate of a tracked way).
                state.onInsert(set, hit_way, block);
                ref_insert(ref, block, true);
            } else {
                state.onHit(set, hit_way);
                switch (kind) {
                  case PolicyKind::Lru:
                  case PolicyKind::Fifo: ref.stamp.onHit(block); break;
                  case PolicyKind::Random: break;
                  case PolicyKind::S3Fifo: ref.s3.onHit(block); break;
                  case PolicyKind::Sieve: ref.sieve.onHit(block); break;
                }
            }
            continue;
        }

        // Miss: first invalid way in way order, like the cache scan.
        std::uint32_t target = noWay;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (!way_valid[w]) {
                target = w;
                break;
            }
        }

        if (target == noWay) {
            // All ways valid: consult the policy.
            std::uint32_t way = state.victim(set);
            EXPECT_LT(way, assoc);
            EXPECT_TRUE(way < assoc && way_valid[way]);
            if (way >= assoc || !way_valid[way])
                return decisions; // state diverged; stop this string
            decisions.push_back(static_cast<std::uint32_t>(set) * assoc +
                                way);

            switch (kind) {
              case PolicyKind::Lru:
              case PolicyKind::Fifo:
                EXPECT_EQ(way_block[way], ref.stamp.victim())
                    << "policy=" << mem::policyName(kind)
                    << " assoc=" << assoc << " set=" << set
                    << " step=" << step;
                break;
              case PolicyKind::Random:
                // One stream per cache: draws follow the victim calls
                // across all sets.
                EXPECT_EQ(way, static_cast<std::uint32_t>(
                                   reference_rng.below(assoc)))
                    << "assoc=" << assoc << " step=" << step;
                break;
              case PolicyKind::S3Fifo:
                EXPECT_EQ(way_block[way], ref.s3.victim())
                    << "assoc=" << assoc << " set=" << set
                    << " step=" << step;
                break;
              case PolicyKind::Sieve:
                EXPECT_EQ(way_block[way], ref.sieve.victim())
                    << "assoc=" << assoc << " set=" << set
                    << " step=" << step;
                break;
            }
            target = way;
            way_valid[target] = false;
        }

        state.onInsert(set, target, block);
        ref_insert(ref, block, false);
        way_valid[target] = true;
        way_block[target] = block;
    }
    return decisions;
}

class PolicyFuzz
    : public testing::TestWithParam<
          std::tuple<PolicyKind, std::uint32_t, std::uint32_t>>
{
};

TEST_P(PolicyFuzz, MatchesNaiveModel)
{
    auto [kind, assoc, seed] = GetParam();
    fuzzPolicy(kind, assoc, seed, 4000);
}

TEST_P(PolicyFuzz, DeterministicAcrossReruns)
{
    auto [kind, assoc, seed] = GetParam();
    auto first = fuzzPolicy(kind, assoc, seed, 1500);
    auto second = fuzzPolicy(kind, assoc, seed, 1500);
    EXPECT_EQ(first, second);
}

std::string
policyFuzzName(const testing::TestParamInfo<PolicyFuzz::ParamType> &info)
{
    return std::string(mem::policyName(std::get<0>(info.param))) +
           "_a" + std::to_string(std::get<1>(info.param)) + "_s" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyFuzz,
    testing::Combine(testing::Values(PolicyKind::Lru, PolicyKind::Fifo,
                                     PolicyKind::Random,
                                     PolicyKind::S3Fifo,
                                     PolicyKind::Sieve),
                     // Single-way sets are a degenerate corner every
                     // policy must survive (victim() == way 0 always);
                     // 4 matches the MDCs, 16 the L2 banks.
                     testing::Values(1u, 4u, 16u),
                     testing::Values(1u, 2u, 3u)),
    policyFuzzName);

TEST(ReplacementPolicy, SingleWayVictimIsAlwaysWayZero)
{
    for (PolicyKind kind : mem::allPolicies()) {
        mem::ReplacementState state(kind, fuzzSets, 1, testSeed);
        for (std::size_t set = 0; set < fuzzSets; ++set)
            state.onInsert(set, 0, 0x40 + static_cast<Addr>(set));
        for (int i = 0; i < 8; ++i) {
            for (std::size_t set = 0; set < fuzzSets; ++set) {
                EXPECT_EQ(state.victim(set), 0u)
                    << mem::policyName(kind) << " set " << set;
                state.onInsert(set, 0,
                               0x80 + static_cast<Addr>(8 * set + i));
            }
        }
    }
}

TEST(ReplacementPolicy, NamesRoundTrip)
{
    for (PolicyKind kind : mem::allPolicies()) {
        PolicyKind parsed;
        ASSERT_TRUE(mem::tryPolicyFromName(mem::policyName(kind),
                                           &parsed));
        EXPECT_EQ(parsed, kind);
    }
    PolicyKind parsed;
    EXPECT_FALSE(mem::tryPolicyFromName("clock", &parsed));
    EXPECT_FALSE(mem::tryPolicyFromName("LRU", &parsed));
    EXPECT_FALSE(mem::tryPolicyFromName("", &parsed));
}

} // namespace
