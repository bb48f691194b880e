/**
 * @file
 * Differential fuzz of the oracle tracker index: StreamingDetector in
 * unlimited-MAT mode (trackers = 0) against the linear-scan reference
 * in tests/reference_streaming_detector.hh.
 *
 * Randomized sector streams mix sequential chunk sweeps (coverage
 * exits), hot chunks hammered on a few blocks (budget exits), sparse
 * touches across a large chunk pool that time out, bursts that open
 * thousands of phases at once, non-monotone `now` jitter, writes,
 * finalizeAll at random points and reset() mid-stream. After every
 * call the two detectors must agree on the exact DetectionEvent
 * vector (order included), on predictStreaming/confirmedStreaming for
 * the accessed chunk, and on every stat scalar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "detect/streaming.hh"
#include "reference_streaming_detector.hh"

using namespace shmgpu;
using namespace shmgpu::detect;

namespace
{

constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kSectorBytes = 32;
constexpr std::uint64_t kSectorsPerChunk = kChunkBytes / kSectorBytes;

struct EventKey
{
    std::uint64_t chunk;
    bool detected, predicted, write;
    std::uint64_t mask;
    PhaseExit exit;

    bool operator==(const EventKey &) const = default;
};

std::vector<EventKey>
keys(const std::vector<DetectionEvent> &events)
{
    std::vector<EventKey> out;
    for (const auto &e : events)
        out.push_back({e.chunk, e.detectedStreaming, e.predictedStreaming,
                       e.sawWrite, e.accessMask, e.exit});
    return out;
}

std::string
dumpStats(const stats::StatGroup &root)
{
    std::ostringstream os;
    root.dump(os);
    return os.str();
}

/** One detector pair fed the same calls. */
class Pair
{
  public:
    explicit Pair(const StreamingDetectorParams &params)
        : dut(params), ref(params)
    {
        dut.regStats(&dutRoot);
        ref.regStats(&refRoot);
    }

    void
    access(LocalAddr addr, bool is_write, Cycle now)
    {
        dutEvents.clear();
        refEvents.clear();
        dut.access(addr, is_write, now, dutEvents);
        ref.access(addr, is_write, now, refEvents);
        compare("access");
        ASSERT_EQ(dut.predictStreaming(addr), ref.predictStreaming(addr));
        ASSERT_EQ(dut.confirmedStreaming(addr, now),
                  ref.confirmedStreaming(addr, now));
        maxLive = std::max(maxLive, ref.liveTrackers());
    }

    void
    finalizeAll(Cycle now)
    {
        dutEvents.clear();
        refEvents.clear();
        dut.finalizeAll(now, dutEvents);
        ref.finalizeAll(now, refEvents);
        compare("finalizeAll");
    }

    void
    reset()
    {
        dut.reset();
        ref.reset();
    }

    void
    compare(const char *what)
    {
        ASSERT_EQ(keys(dutEvents), keys(refEvents)) << what;
        ASSERT_EQ(dumpStats(dutRoot), dumpStats(refRoot)) << what;
        for (const auto &e : refEvents)
            ++exits[static_cast<int>(e.exit)];
    }

    std::size_t maxLive = 0;
    std::size_t exits[3] = {0, 0, 0};

  private:
    StreamingDetector dut;
    test::ReferenceStreamingDetector ref;
    stats::StatGroup dutRoot;
    stats::StatGroup refRoot;
    std::vector<DetectionEvent> dutEvents;
    std::vector<DetectionEvent> refEvents;
};

/** A sector address inside @p chunk. */
LocalAddr
sectorAddr(std::uint64_t chunk, std::uint64_t sector)
{
    return chunk * kChunkBytes + sector * kSectorBytes;
}

class OracleTrackerDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(OracleTrackerDiff, IndexedOracleMatchesLinearScan)
{
    Rng rng(GetParam());
    StreamingDetectorParams params;
    params.trackers = 0;
    // A small predictor makes chunks alias, so the order in which
    // expired phases update it is observable.
    params.entries = 64;
    params.timeoutCycles = 1500 + rng.below(3000);
    params.cooldownCycles = 200 + rng.below(1500);
    Pair pair(params);

    Cycle clock = 1000;
    auto jittered = [&] {
        // Non-monotone: up to 64 cycles either side of the clock.
        return clock - 64 + rng.below(129);
    };

    constexpr int kSegments = 60;
    for (int seg = 0; seg < kSegments; ++seg) {
        std::uint64_t kind = rng.below(5);
        if (seg == 7)
            kind = 4; // guarantee one wide burst per seed
        switch (kind) {
          case 0: { // interleaved sequential sweeps: coverage exits
            std::uint64_t base = rng.below(4096);
            std::uint64_t fronts = 1 + rng.below(24);
            for (std::uint64_t s = 0; s < kSectorsPerChunk; ++s) {
                for (std::uint64_t f = 0; f < fronts; ++f) {
                    // An occasional skipped sector leaves gaps.
                    if (rng.below(200) == 0)
                        continue;
                    pair.access(sectorAddr(base + f, s),
                                rng.below(8) == 0, jittered());
                    if (HasFatalFailure())
                        return;
                }
                clock += rng.below(6);
            }
            break;
          }
          case 1: { // hot chunks on a few blocks: budget exits
            std::uint64_t base = rng.below(4096);
            for (int i = 0; i < 1500; ++i) {
                std::uint64_t chunk = base + rng.below(6);
                std::uint64_t sector = rng.below(24) * 4 + rng.below(4);
                pair.access(sectorAddr(chunk, sector), rng.below(4) == 0,
                            jittered());
                if (HasFatalFailure())
                    return;
                clock += rng.below(3);
            }
            break;
          }
          case 2: { // sparse touches over a wide pool: timeouts
            for (int i = 0; i < 1500; ++i) {
                pair.access(sectorAddr(rng.below(20000),
                                       rng.below(kSectorsPerChunk)),
                            rng.below(3) == 0, jittered());
                if (HasFatalFailure())
                    return;
                clock += rng.below(12);
            }
            break;
          }
          case 3: { // a jump past every deadline: mass expiry
            clock += params.timeoutCycles + rng.below(4000);
            pair.access(sectorAddr(rng.below(20000), 0), false,
                        jittered());
            if (HasFatalFailure())
                return;
            break;
          }
          default: { // a burst wider than any MAT pool
            std::uint64_t base = 100000 + rng.below(100000);
            std::uint64_t width = 2200 + rng.below(800);
            for (std::uint64_t c = 0; c < width; ++c) {
                pair.access(sectorAddr(base + c, rng.below(4)),
                            rng.below(5) == 0, jittered());
                if (HasFatalFailure())
                    return;
                if (c % 2 == 0)
                    ++clock;
            }
            break;
          }
        }

        std::uint64_t roll = rng.below(10);
        if (roll == 0) {
            pair.finalizeAll(jittered());
            if (HasFatalFailure())
                return;
        } else if (roll == 1) {
            pair.reset();
        }
    }
    pair.finalizeAll(clock + params.timeoutCycles);

    EXPECT_GT(pair.maxLive, 2000u) << "the pool never grew wide";
    EXPECT_GT(pair.exits[static_cast<int>(PhaseExit::Coverage)], 0u);
    EXPECT_GT(pair.exits[static_cast<int>(PhaseExit::Budget)], 0u);
    EXPECT_GT(pair.exits[static_cast<int>(PhaseExit::Timeout)], 0u);
}

TEST(OracleTrackerDiff, ResetMidStreamMatches)
{
    // reset() while thousands of phases are open, then reuse the pool.
    StreamingDetectorParams params;
    params.trackers = 0;
    params.entries = 16;
    Pair pair(params);
    Rng rng(99);
    Cycle clock = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t c = 0; c < 2500; ++c) {
            pair.access(sectorAddr(c * 3 + round, rng.below(128)),
                        rng.below(2) == 0, clock++);
            if (HasFatalFailure())
                return;
        }
        pair.reset();
        clock += 10;
    }
    pair.finalizeAll(clock + 100000);
    EXPECT_GT(pair.maxLive, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTrackerDiff,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));
