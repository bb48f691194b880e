/**
 * @file
 * CalendarQueue unit tests: the (cycle, id) pop-order contract, the
 * 64-slot wheel/overflow boundary, rebasing via clear(), popBefore's
 * limit, and randomized comparisons against a sorted-set reference
 * model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/calendar_queue.hh"
#include "common/rng.hh"

using namespace shmgpu;

using Event = std::pair<Cycle, std::uint32_t>;

TEST(CalendarQueue, PopsInCycleOrder)
{
    CalendarQueue q(8);
    q.clear(0);
    q.push(5, 0);
    q.push(2, 1);
    q.push(9, 2);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.popMin(), Event(2, 1));
    EXPECT_EQ(q.popMin(), Event(5, 0));
    EXPECT_EQ(q.popMin(), Event(9, 2));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameCycleTiesBreakByAscendingId)
{
    // Same-cycle pops must come out in ascending id — the SM issue
    // order the event-driven kernel loop relies on for bit-identity
    // with the per-cycle reference loop.
    CalendarQueue q(64);
    q.clear(100);
    for (std::uint32_t id : {37u, 3u, 50u, 0u, 12u})
        q.push(100, id);
    for (std::uint32_t want : {0u, 3u, 12u, 37u, 50u})
        EXPECT_EQ(q.popMin(), Event(100, want));
}

TEST(CalendarQueue, InterleavesPushesWithPops)
{
    CalendarQueue q(4);
    q.clear(0);
    q.push(0, 2);
    q.push(0, 1);
    EXPECT_EQ(q.popMin(), Event(0, 1));
    q.push(1, 1); // re-schedule after pop, like back-to-back issue
    EXPECT_EQ(q.popMin(), Event(0, 2));
    q.push(3, 2);
    EXPECT_EQ(q.popMin(), Event(1, 1));
    EXPECT_EQ(q.popMin(), Event(3, 2));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, FarEventsCrossTheWheelBoundary)
{
    // Events >= 64 cycles ahead park in the overflow heap and must
    // migrate into the wheel as the clock reaches them, including
    // exactly-at-the-boundary and far-jump cases.
    CalendarQueue q(8);
    q.clear(0);
    q.push(63, 0);   // last wheel slot
    q.push(64, 1);   // first overflow cycle
    q.push(64, 0);   // same cycle, lower id, also overflow
    q.push(5000, 2); // deep overflow
    EXPECT_EQ(q.popMin(), Event(63, 0));
    EXPECT_EQ(q.popMin(), Event(64, 0));
    EXPECT_EQ(q.popMin(), Event(64, 1));
    EXPECT_EQ(q.popMin(), Event(5000, 2));
}

TEST(CalendarQueue, JumpAcrossEmptyWheelThenNearPushes)
{
    CalendarQueue q(8);
    q.clear(0);
    q.push(1000, 3);
    EXPECT_EQ(q.popMin(), Event(1000, 3));
    // After the jump the wheel is rebased at 1000: near pushes land in
    // the ring again.
    q.push(1001, 4);
    q.push(1000, 5); // same cycle as the last pop is still legal
    EXPECT_EQ(q.popMin(), Event(1000, 5));
    EXPECT_EQ(q.popMin(), Event(1001, 4));
}

TEST(CalendarQueue, ClearRebasesTheClock)
{
    CalendarQueue q(8);
    q.clear(0);
    q.push(10, 1);
    q.push(200, 2);
    ASSERT_EQ(q.size(), 2u);
    q.clear(5'000'000);
    EXPECT_TRUE(q.empty());
    q.push(5'000'000, 0); // at the new base
    q.push(5'000'070, 1); // overflow relative to the new base
    EXPECT_EQ(q.popMin(), Event(5'000'000, 0));
    EXPECT_EQ(q.popMin(), Event(5'000'070, 1));
}

TEST(CalendarQueue, ManyIdsUseMultipleMaskWords)
{
    // > 64 ids exercises the multi-word slot bitmasks.
    CalendarQueue q(200);
    q.clear(0);
    for (std::uint32_t id = 0; id < 200; ++id)
        q.push(7, 199 - id);
    for (std::uint32_t id = 0; id < 200; ++id)
        EXPECT_EQ(q.popMin(), Event(7, id));
}

TEST(CalendarQueue, MatchesReferenceModelOnRandomTraffic)
{
    // Drive the queue with the kernel engine's traffic shape (mostly
    // +1/+N near pushes, occasional DRAM-latency far pushes) and
    // compare every pop against a sorted-set reference model.
    Rng rng(0xCA1E4Da5u);
    CalendarQueue q(30);
    std::set<Event> model;
    std::vector<std::uint32_t> idle; // ids with no pending event
    q.clear(0);
    Cycle clock = 0;

    for (std::uint32_t id = 0; id < 30; ++id) {
        q.push(0, id);
        model.emplace(0, id);
    }

    static constexpr Cycle deltas[] = {0, 1, 2, 5, 17, 63, 64, 400};
    for (int step = 0; step < 20000; ++step) {
        ASSERT_EQ(q.size(), model.size());
        if (model.empty() || (!idle.empty() && rng.below(3) == 0)) {
            // Re-schedule an idle id at a random distance; at most one
            // pending event per id, like the kernel engine's SMs.
            std::size_t pick = rng.below(idle.size());
            std::uint32_t id = idle[pick];
            idle[pick] = idle.back();
            idle.pop_back();
            Cycle at = clock + deltas[rng.below(8)];
            q.push(at, id);
            model.emplace(at, id);
        } else {
            Event got = q.popMin();
            Event want = *model.begin();
            model.erase(model.begin());
            ASSERT_EQ(got, want) << "step " << step;
            clock = got.first;
            idle.push_back(got.second);
        }
    }
}

TEST(CalendarQueue, PopBeforeOnAnEmptyQueueReturnsFalse)
{
    CalendarQueue q(4);
    q.clear(0);
    Cycle at = 7;
    std::uint32_t id = 3;
    EXPECT_FALSE(q.popBefore(invalidCycle, at, id));
    EXPECT_EQ(at, 7u); // untouched
    EXPECT_EQ(id, 3u);
    q.push(0, 1);
    EXPECT_TRUE(q.popBefore(1, at, id));
    EXPECT_EQ(Event(at, id), Event(0, 1));
    EXPECT_FALSE(q.popBefore(invalidCycle, at, id));
}

TEST(CalendarQueue, PopBeforeStopsAtTheLimitAroundAnOverflowEvent)
{
    // A lone overflow event at 1000: limits at, just below and just
    // past it. A refused pop moves no clock, so a push earlier than
    // the refused event stays legal and pops first.
    CalendarQueue q(8);
    q.clear(0);
    q.push(1000, 2);
    Cycle at = 0;
    std::uint32_t id = 0;
    EXPECT_FALSE(q.popBefore(999, at, id));
    EXPECT_FALSE(q.popBefore(1000, at, id));
    q.push(10, 5);
    EXPECT_FALSE(q.popBefore(10, at, id));
    ASSERT_TRUE(q.popBefore(11, at, id));
    EXPECT_EQ(Event(at, id), Event(10, 5));
    EXPECT_FALSE(q.popBefore(1000, at, id));
    ASSERT_TRUE(q.popBefore(1001, at, id));
    EXPECT_EQ(Event(at, id), Event(1000, 2));
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, PopBeforeMatchesPeekThenPopMin)
{
    // Two queues fed the same pushes: one drained by popBefore, the
    // other by the peek-then-pop it replaces (the model's minimum
    // stands in for the peek). Limits fall on, just below and just
    // past the next event, or at random; pushes cross the 64-slot
    // wheel into the overflow heap.
    Rng rng(0xB0F0E5u);
    CalendarQueue lazy(70), eager(70);
    std::set<Event> model;
    std::vector<std::uint32_t> idle;
    lazy.clear(0);
    eager.clear(0);
    Cycle clock = 0;
    for (std::uint32_t id = 0; id < 70; ++id)
        idle.push_back(id);

    static constexpr Cycle deltas[] = {0, 1, 3, 63, 64, 65, 200, 5000};
    std::uint64_t pops = 0, refusals = 0;
    for (int step = 0; step < 40000; ++step) {
        ASSERT_EQ(lazy.size(), model.size());
        if (!idle.empty() && (model.empty() || rng.below(2) == 0)) {
            std::size_t pick = rng.below(idle.size());
            std::uint32_t id = idle[pick];
            idle[pick] = idle.back();
            idle.pop_back();
            Cycle at = clock + deltas[rng.below(8)];
            lazy.push(at, id);
            eager.push(at, id);
            model.emplace(at, id);
            continue;
        }
        Cycle limit;
        if (model.empty()) {
            limit = rng.below(2) ? invalidCycle : clock + 10;
        } else {
            const Cycle next = model.begin()->first;
            switch (rng.below(4)) {
              case 0: limit = next; break;
              case 1: limit = next > 0 ? next - 1 : 0; break;
              case 2: limit = next + 1; break;
              default: limit = clock + rng.below(300); break;
            }
        }
        const bool want = !model.empty() && model.begin()->first < limit;
        Cycle at = 0;
        std::uint32_t id = 0;
        ASSERT_EQ(lazy.popBefore(limit, at, id), want) << "step " << step;
        if (!want) {
            ++refusals;
            continue;
        }
        ++pops;
        const Event got(at, id);
        ASSERT_EQ(got, *model.begin()) << "step " << step;
        ASSERT_EQ(got, eager.popMin()) << "step " << step;
        model.erase(model.begin());
        clock = at;
        idle.push_back(id);
    }
    EXPECT_GT(pops, 5000u);
    EXPECT_GT(refusals, 5000u);
}
