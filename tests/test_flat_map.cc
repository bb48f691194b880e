/**
 * @file
 * FlatMap unit and property tests: basic map semantics, deterministic
 * iteration, tombstone reuse under erase/insert churn, and a long
 * randomized differential run against std::unordered_map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"

using namespace shmgpu;

TEST(FlatMap, InsertFindErase)
{
    FlatMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.erase(42));

    auto [val, inserted] = map.emplace(42, 7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*val, 7);
    EXPECT_EQ(map.size(), 1u);

    auto [again, inserted2] = map.emplace(42, 99);
    EXPECT_FALSE(inserted2);
    EXPECT_EQ(*again, 7) << "emplace on a present key must not overwrite";

    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 7);
    EXPECT_TRUE(map.contains(42));

    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.contains(42));
    EXPECT_TRUE(map.empty());
}

TEST(FlatMap, SubscriptDefaultConstructs)
{
    FlatMap<std::uint32_t> map;
    map[5] |= 0x10; // the pending-write-mask idiom
    map[5] |= 0x01;
    EXPECT_EQ(map[5], 0x11u);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, RehashPreservesEntries)
{
    FlatMap<std::uint64_t> map;
    constexpr std::uint64_t n = 10000;
    for (std::uint64_t k = 0; k < n; ++k)
        map.emplace(k * 128, k);
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t k = 0; k < n; ++k) {
        ASSERT_NE(map.find(k * 128), nullptr) << "key " << k * 128;
        EXPECT_EQ(*map.find(k * 128), k);
    }
}

TEST(FlatMap, IterationIsDeterministic)
{
    // Two maps fed the same operation sequence iterate identically —
    // the property the stats/JSON reproducibility contract needs.
    FlatMap<int> a;
    FlatMap<int> b;
    Rng rng_a(123);
    Rng rng_b(123);
    auto feed = [](FlatMap<int> &map, Rng &rng) {
        for (int i = 0; i < 5000; ++i) {
            std::uint64_t key = rng.below(512) * 64;
            if (rng.below(3) == 0)
                map.erase(key);
            else
                map.emplace(key, static_cast<int>(key));
        }
    };
    feed(a, rng_a);
    feed(b, rng_b);

    std::vector<std::uint64_t> order_a;
    std::vector<std::uint64_t> order_b;
    for (const auto &[key, value] : a)
        order_a.push_back(key);
    for (const auto &[key, value] : b)
        order_b.push_back(key);
    EXPECT_EQ(order_a.size(), a.size());
    EXPECT_EQ(order_a, order_b);
}

TEST(FlatMap, TombstoneReuseKeepsCapacityBounded)
{
    // MSHR churn: never more than `live` entries alive, arbitrary
    // insert/erase traffic. Tombstone reuse must keep the table at
    // the reserved size instead of growing without bound.
    constexpr std::size_t live = 64;
    FlatMap<std::uint32_t> map;
    map.reserve(live);
    std::size_t reserved = map.capacity();
    ASSERT_GT(reserved, 0u);

    std::uint64_t next_key = 0;
    std::vector<std::uint64_t> alive;
    Rng rng(7);
    auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            if (alive.size() < live && (alive.empty() || rng.below(2))) {
                map.emplace(next_key, 1u);
                alive.push_back(next_key);
                next_key += 128;
            } else {
                std::size_t pick = rng.below(alive.size());
                EXPECT_TRUE(map.erase(alive[pick]));
                alive[pick] = alive.back();
                alive.pop_back();
            }
        }
    };

    // The occupancy heuristic may double once while settling; after
    // that, churn must be absorbed by tombstone reuse and in-place
    // rehashes, never further growth.
    churn(100000);
    std::size_t settled = map.capacity();
    EXPECT_LE(settled, reserved * 4);
    churn(100000);
    EXPECT_EQ(map.size(), alive.size());
    EXPECT_EQ(map.capacity(), settled)
        << "erase/insert churn at bounded occupancy must not grow "
           "the table";
}

TEST(FlatMap, ClearKeepsCapacity)
{
    FlatMap<int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map.emplace(k, 1);
    std::size_t cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(5), nullptr);
    map.emplace(5, 2);
    EXPECT_EQ(*map.find(5), 2);
}

TEST(FlatMap, FuzzAgainstUnorderedMap)
{
    // Long randomized differential run: FlatMap must agree with
    // std::unordered_map on every observable after every operation
    // batch, including adversarial keys (colliding low bits, 0,
    // all-ones).
    FlatMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(0xF1A7F1A7);

    auto random_key = [&]() -> std::uint64_t {
        switch (rng.below(4)) {
        case 0:
            return rng.below(64) << 20; // identical low bits
        case 1:
            return rng.below(1024) * 128; // block-address shaped
        case 2:
            return rng.next(); // arbitrary
        default:
            return rng.below(2) ? 0 : ~std::uint64_t{0};
        }
    };

    for (int step = 0; step < 100000; ++step) {
        std::uint64_t key = random_key();
        switch (rng.below(4)) {
        case 0: { // emplace
            std::uint64_t value = rng.next();
            auto [ptr, inserted] = map.emplace(key, value);
            auto [it, ref_inserted] = ref.emplace(key, value);
            ASSERT_EQ(inserted, ref_inserted);
            ASSERT_EQ(*ptr, it->second);
            break;
        }
        case 1: { // operator[] |= write
            std::uint64_t bit = 1ull << rng.below(64);
            map[key] |= bit;
            ref[key] |= bit;
            break;
        }
        case 2: // erase
            ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
            break;
        default: // find
            const std::uint64_t *found = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found) {
                ASSERT_EQ(*found, it->second);
            }
            break;
        }
        ASSERT_EQ(map.size(), ref.size());
    }

    // Full-content comparison via iteration.
    std::size_t seen = 0;
    for (const auto &[key, value] : map) {
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(value, it->second);
        ++seen;
    }
    EXPECT_EQ(seen, ref.size());
}
