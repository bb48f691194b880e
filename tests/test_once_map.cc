/**
 * @file
 * OnceMap tests: one build per key under concurrent requests and
 * stable references.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/once_map.hh"

using namespace shmgpu;

TEST(OnceMap, ConcurrentRequestsForOneKeyBuildOnce)
{
    constexpr int kThreads = 8;
    OnceMap<int> map;
    std::atomic<int> builds{0};
    std::atomic<bool> go{false};
    std::vector<const int *> seen(kThreads, nullptr);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            seen[t] = &map.get(42, [&] {
                builds.fetch_add(1);
                // Hold the build open so the other threads pile up on
                // the same entry.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return 7;
            });
        });
    go.store(true);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(map.size(), 1u);
    for (const int *p : seen) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, seen[0]);
        EXPECT_EQ(*p, 7);
    }
}

TEST(OnceMap, DistinctKeysBuildSeparatelyAndStayPut)
{
    OnceMap<int> map;
    const int &a = map.get(1, [] { return 10; });
    for (std::uint64_t k = 2; k < 200; ++k)
        map.get(k, [k] { return static_cast<int>(k); });
    EXPECT_EQ(map.size(), 199u);
    EXPECT_EQ(&map.get(1, [] { return -1; }), &a);
    EXPECT_EQ(a, 10);
}
