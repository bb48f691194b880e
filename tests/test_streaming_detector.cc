/**
 * @file
 * Streaming detector / MAT tests (Section IV-C).
 */

#include <gtest/gtest.h>

#include "detect/streaming.hh"

using namespace shmgpu;
using namespace shmgpu::detect;

namespace
{

StreamingDetectorParams
params()
{
    StreamingDetectorParams p; // paper defaults
    return p;
}

/** Feed a full sequential sector sweep of one chunk. */
void
sweepChunk(StreamingDetector &d, std::uint64_t chunk, Cycle &now,
           std::vector<DetectionEvent> &events, bool write = false,
           Cycle step = 2)
{
    for (int s = 0; s < 128; ++s) {
        d.access(chunk * 4096 + static_cast<std::uint64_t>(s) * 32,
                 write, now, events);
        now += step;
    }
}

} // namespace

TEST(StreamingDetector, EagerStreamingInitialization)
{
    StreamingDetector d(params());
    EXPECT_TRUE(d.predictStreaming(0));
    EXPECT_TRUE(d.predictStreaming(123 * 4096));
    EXPECT_TRUE(d.entryNeverUpdated(0));
}

TEST(StreamingDetector, FullSweepDetectsStreaming)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 0, now, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].detectedStreaming);
    EXPECT_TRUE(events[0].predictedStreaming);
    EXPECT_FALSE(events[0].sawWrite);
    EXPECT_EQ(events[0].accessMask, 0xFFFFFFFFu);
    EXPECT_FALSE(d.entryNeverUpdated(0));
}

TEST(StreamingDetector, SparseAccessesDetectRandomOnTimeout)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    // Touch only three blocks, then let time pass.
    d.access(0, false, now, events);
    d.access(5 * 128, false, now + 1, events);
    d.access(9 * 128, false, now + 2, events);
    EXPECT_TRUE(events.empty());
    // A later access (anywhere) expires the phase.
    d.access(100 * 4096, false, now + 7000, events);
    ASSERT_GE(events.size(), 1u);
    EXPECT_FALSE(events[0].detectedStreaming);
    EXPECT_EQ(events[0].chunk, 0u);
    EXPECT_FALSE(d.predictStreaming(0)) << "bit vector updated";
}

TEST(StreamingDetector, AccessBudgetCutsOffRandomChunks)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    // 128 accesses hammering two blocks only: budget exhausted with
    // gaps -> random, without waiting for the timeout.
    for (int i = 0; i < 128; ++i) {
        d.access((i % 2) * 128, false, now, events);
        ++now;
    }
    ASSERT_EQ(events.size(), 1u);
    EXPECT_FALSE(events[0].detectedStreaming);
}

TEST(StreamingDetector, WriteFlagPropagates)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 3, now, events, /*write=*/true);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_TRUE(events[0].sawWrite);
}

TEST(StreamingDetector, CooldownAbsorbsStragglers)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 0, now, events);
    ASSERT_EQ(events.size(), 1u);
    events.clear();

    // A trailing access right after the phase completed must not
    // start a junk phase.
    d.access(31 * 128, false, now + 10, events);
    d.access(100 * 4096, false, now + 20000, events); // expiry trigger
    for (const auto &e : events)
        EXPECT_NE(e.chunk, 0u) << "straggler spawned a junk phase";
    EXPECT_TRUE(d.predictStreaming(0));
}

TEST(StreamingDetector, TrackerPoolLimitsConcurrentMonitoring)
{
    StreamingDetectorParams p = params();
    p.trackers = 2;
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    // Open monitoring on chunks 0 and 1; chunk 2 finds no MAT and
    // goes unmonitored.
    d.access(0, false, 0, events);
    d.access(4096, false, 1, events);
    d.access(2 * 4096, false, 2, events);
    EXPECT_TRUE(events.empty());
    // Complete chunk 2's would-be stream: no event, prediction stays.
    for (int s = 1; s < 128; ++s)
        d.access(2 * 4096 + static_cast<std::uint64_t>(s) * 32, false, 3,
                 events);
    for (const auto &e : events)
        EXPECT_NE(e.chunk, 2u);
    EXPECT_TRUE(d.predictStreaming(2 * 4096));
}

TEST(StreamingDetector, TimedOutTrackerIsReclaimed)
{
    StreamingDetectorParams p = params();
    p.trackers = 1;
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    d.access(0, false, 0, events); // occupies the only MAT
    // 7000 cycles later another chunk wants a MAT: the stale phase is
    // finalized (random) and the MAT reassigned.
    d.access(4096, false, 7000, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].chunk, 0u);
    EXPECT_FALSE(events[0].detectedStreaming);
}

TEST(StreamingDetector, AliasingProvenance)
{
    StreamingDetectorParams p = params();
    p.entries = 2; // chunk ids alias mod 2
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 0, now, events);
    EXPECT_EQ(d.entryLastUpdater(2), 0u)
        << "chunk 2 aliases chunk 0's entry";
    EXPECT_FALSE(d.entryNeverUpdated(2));
}

TEST(StreamingDetector, PrimePrediction)
{
    StreamingDetector d(params());
    d.primePrediction(7, false);
    EXPECT_FALSE(d.predictStreaming(7 * 4096));
    EXPECT_FALSE(d.entryNeverUpdated(7));
    EXPECT_EQ(d.entryLastUpdater(7), 7u);
}

TEST(StreamingDetector, FinalizeAllFlushesOpenPhases)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    d.access(0, false, 0, events);
    d.access(128, false, 1, events);
    EXPECT_TRUE(events.empty());
    d.finalizeAll(2, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_FALSE(events[0].detectedStreaming);
}

TEST(StreamingDetector, OracleModeTracksEverything)
{
    StreamingDetectorParams p = params();
    p.trackers = 0; // unlimited
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    // 20 interleaved chunk sweeps — far beyond 8 hardware MATs.
    for (int s = 0; s < 128; ++s) {
        for (std::uint64_t c = 0; c < 20; ++c) {
            d.access(c * 4096 + static_cast<std::uint64_t>(s) * 32,
                     false, now, events);
        }
        now += 1;
    }
    int streaming = 0;
    for (const auto &e : events)
        streaming += e.detectedStreaming;
    EXPECT_EQ(streaming, 20);
}

TEST(StreamingDetector, OraclePhaseOnTheHighestChunkAfterReset)
{
    StreamingDetectorParams p = params();
    p.trackers = 0; // unlimited: trackers are indexed by chunk id
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    d.access(0, false, now++, events); // a phase reset() drops
    d.reset();
    EXPECT_FALSE(d.confirmedStreaming(0, now));

    // The last chunk of a default 320 MB partition, far above every
    // chunk id the detector has seen.
    const std::uint64_t top = (320ull << 20) / 4096 - 1;
    EXPECT_FALSE(d.confirmedStreaming(top * 4096, now));
    d.access(top * 4096, false, now++, events);
    EXPECT_TRUE(d.confirmedStreaming(top * 4096, now))
        << "the new phase is found by its chunk id";
    sweepChunk(d, top, now, events);
    ASSERT_EQ(events.size(), 1u) << "one phase, not one per access";
    EXPECT_EQ(events[0].chunk, top);
    EXPECT_TRUE(events[0].detectedStreaming);
    EXPECT_EQ(events[0].exit, PhaseExit::Coverage);
    EXPECT_FALSE(d.confirmedStreaming(0, now));
}

TEST(StreamingDetector, HardwareBitsMatchTableIX)
{
    StreamingDetector d(params());
    // Table IX: 2048-entry vector + 8 MATs x 71 bits.
    EXPECT_EQ(d.hardwareBits(), 2048u + 8u * 71u);
}

TEST(StreamingDetector, ConfirmedWhileMonitored)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    EXPECT_FALSE(d.confirmedStreaming(0, 0))
        << "an eager-init prediction alone is not verifiable";
    d.access(0, false, 0, events); // allocates a MAT
    EXPECT_TRUE(d.confirmedStreaming(0, 1));
}

TEST(StreamingDetector, ConfirmedAfterOwnDetection)
{
    StreamingDetector d(params());
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 0, now, events);
    ASSERT_EQ(events.size(), 1u);
    // Entry self-set streaming: confirmed without an active MAT.
    EXPECT_TRUE(d.confirmedStreaming(0, now + 50000));
    // An aliased chunk sharing the entry is NOT confirmed.
    EXPECT_FALSE(d.confirmedStreaming(2048ull * 4096, now + 50000));
}

TEST(StreamingDetector, RandomChunksDoNotHogTrackers)
{
    StreamingDetectorParams p = params();
    StreamingDetector d(p);
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    // Classify 6 chunks random via sparse timed-out phases.
    for (std::uint64_t c = 0; c < 6; ++c) {
        d.access(c * 4096, false, now, events);
        d.access(c * 4096 + 5 * 128, false, now + 1, events);
        now += 7000; // expire each phase
    }
    d.access(100 * 4096, false, now, events); // flush stragglers
    events.clear();

    // Hammer the random chunks: re-monitoring is paced and capped, so
    // at most randomMonitorLimit MATs may be busy with them...
    for (int i = 0; i < 2000; ++i)
        d.access((i % 6) * 4096ull + (i % 32) * 128, false, ++now,
                 events);
    // ...which leaves trackers free for a fresh streaming front.
    events.clear();
    for (int s = 0; s < 128; ++s)
        d.access(50 * 4096 + static_cast<LocalAddr>(s) * 32, false,
                 ++now, events);
    bool found = false;
    for (const auto &e : events)
        if (e.chunk == 50 && e.detectedStreaming)
            found = true;
    EXPECT_TRUE(found) << "streaming front was starved of MATs";
}

TEST(StreamingDetector, ObservabilityStats)
{
    stats::StatGroup root(nullptr, "root");
    StreamingDetector d(params());
    d.regStats(&root);
    std::vector<DetectionEvent> events;
    Cycle now = 0;
    sweepChunk(d, 0, now, events);
    d.access(31 * 128, false, now + 1, events); // cooldown straggler

    bool found = false;
    EXPECT_EQ(root.lookup("stream_detector.phases_started", &found), 1);
    EXPECT_TRUE(found);
    EXPECT_EQ(root.lookup("stream_detector.coverage_exits", &found), 1);
    // The sweep's own tail sectors (after early coverage-finalize)
    // plus the explicit straggler are all absorbed.
    EXPECT_GE(root.lookup("stream_detector.cooldown_absorbed", &found),
              1);
}
