/**
 * @file
 * AccessProfile (ground-truth oracle) tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "detect/oracle.hh"

using namespace shmgpu;
using namespace shmgpu::detect;

namespace
{

/** Local span of each partition: covers every address below. */
constexpr std::uint64_t kSpan = 2ull << 30;

} // namespace

TEST(AccessProfile, RegionsDefaultToReadOnly)
{
    AccessProfile p(2, kSpan);
    EXPECT_TRUE(p.regionReadOnly(0, 0));
    EXPECT_TRUE(p.regionReadOnly(1, 123456));
}

TEST(AccessProfile, WritesMarkRegions)
{
    AccessProfile p(2, kSpan);
    p.recordAccess(0, 100, true, 0);
    EXPECT_FALSE(p.regionReadOnly(0, 0));
    EXPECT_FALSE(p.regionReadOnly(0, 16 * 1024 - 1));
    EXPECT_TRUE(p.regionReadOnly(0, 16 * 1024));
    EXPECT_TRUE(p.regionReadOnly(1, 0)) << "partitions are separate";
}

TEST(AccessProfile, ReadsDoNotMarkRegions)
{
    AccessProfile p(1, kSpan);
    p.recordAccess(0, 0, false, 0);
    EXPECT_TRUE(p.regionReadOnly(0, 0));
}

TEST(AccessProfile, StreamedChunkClassifiedStreaming)
{
    AccessProfile p(1, kSpan);
    Cycle now = 0;
    for (int s = 0; s < 128; ++s)
        p.recordAccess(0, static_cast<LocalAddr>(s) * 32, false, now++);
    p.finalize();
    EXPECT_TRUE(p.chunkStreaming(0, 0));
}

TEST(AccessProfile, SparseChunkClassifiedRandom)
{
    AccessProfile p(1, kSpan);
    p.recordAccess(0, 0, false, 0);
    p.recordAccess(0, 17 * 128, false, 1);
    p.finalize();
    EXPECT_FALSE(p.chunkStreaming(0, 0));
}

TEST(AccessProfile, BlockGranularSweepIsStreaming)
{
    // One access per block (write-back style) still counts as full
    // coverage for the oracle.
    AccessProfile p(1, kSpan);
    Cycle now = 0;
    for (int b = 0; b < 32; ++b)
        p.recordAccess(0, static_cast<LocalAddr>(b) * 128, true, now++);
    p.finalize();
    EXPECT_TRUE(p.chunkStreaming(0, 0));
}

TEST(AccessProfile, MajorityVoteAcrossPhases)
{
    // A chunk streamed twice and random-probed once stays streaming.
    AccessProfile p(1, kSpan);
    Cycle now = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (int s = 0; s < 128; ++s)
            p.recordAccess(0, static_cast<LocalAddr>(s) * 32, false,
                           now++);
    // Sparse probe, expired by finalize.
    p.recordAccess(0, 5 * 128, false, now);
    p.finalize();
    EXPECT_TRUE(p.chunkStreaming(0, 0));
}

TEST(AccessProfile, UnprofiledChunksKeepEagerDefault)
{
    AccessProfile p(1, kSpan);
    EXPECT_TRUE(p.chunkStreaming(0, 999 * 4096));
}

TEST(AccessProfile, ForEachChunkVisitsAll)
{
    AccessProfile p(1, kSpan);
    Cycle now = 0;
    for (int s = 0; s < 128; ++s)
        p.recordAccess(0, static_cast<LocalAddr>(s) * 32, false, now++);
    p.recordAccess(0, 10 * 4096, false, now);
    p.finalize();

    int chunks = 0;
    int streaming = 0;
    p.forEachChunk(0, [&](std::uint64_t chunk, bool is_streaming) {
        ++chunks;
        if (chunk == 0) {
            EXPECT_TRUE(is_streaming);
        }
        streaming += is_streaming;
    });
    EXPECT_EQ(chunks, 2);
    EXPECT_EQ(streaming, 1);
}

TEST(AccessProfile, ForEachWrittenRegion)
{
    AccessProfile p(1, kSpan);
    p.recordAccess(0, 0, true, 0);
    p.recordAccess(0, 40 * 1024, true, 1);
    p.recordAccess(0, 90 * 1024, false, 2);

    std::vector<std::uint64_t> regions;
    p.forEachWrittenRegion(0, [&](std::uint64_t r) {
        regions.push_back(r);
    });
    std::sort(regions.begin(), regions.end());
    EXPECT_EQ(regions, (std::vector<std::uint64_t>{0, 2}));
}

TEST(AccessProfile, ForEachChunkVisitsAscending)
{
    // Record chunks in a scrambled order; priming must not depend on
    // it (or on any hash-table layout).
    AccessProfile p(1, kSpan);
    std::vector<std::uint64_t> recorded;
    for (std::uint64_t i = 0; i < 300; ++i)
        recorded.push_back((i * 7919) % 1000 + 1000 * (i % 3));
    Cycle now = 0;
    for (std::uint64_t chunk : recorded)
        p.recordAccess(0, chunk * 4096, false, now++);
    p.finalize();

    std::vector<std::uint64_t> visited;
    p.forEachChunk(0, [&](std::uint64_t chunk, bool) {
        visited.push_back(chunk);
    });
    std::sort(recorded.begin(), recorded.end());
    recorded.erase(std::unique(recorded.begin(), recorded.end()),
                   recorded.end());
    EXPECT_EQ(visited, recorded);
}

TEST(AccessProfile, ForEachWrittenRegionVisitsAscending)
{
    AccessProfile p(1, kSpan);
    std::vector<std::uint64_t> written;
    Cycle now = 0;
    for (std::uint64_t i = 0; i < 300; ++i) {
        std::uint64_t region = (i * 104729) % 5000;
        written.push_back(region);
        p.recordAccess(0, region * 16 * 1024, true, now++);
        // Reads of other regions are not visited.
        p.recordAccess(0, (region + 100000) * 16 * 1024, false, now++);
    }

    std::vector<std::uint64_t> visited;
    p.forEachWrittenRegion(0, [&](std::uint64_t r) {
        visited.push_back(r);
    });
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()),
                  written.end());
    EXPECT_EQ(visited, written);
}

TEST(AccessProfile, AccessRatiosAggregateAcrossPartitions)
{
    AccessProfile p(2, kSpan);
    Cycle now = 0;
    // Partition 0: a fully streamed, read-only chunk (128 accesses).
    for (int s = 0; s < 128; ++s)
        p.recordAccess(0, static_cast<LocalAddr>(s) * 32, false, now++);
    // Partition 1: 64 sparse accesses incl. writes (random, written).
    for (int i = 0; i < 64; ++i)
        p.recordAccess(1, (i % 3) * 128, true, now++);
    p.finalize();

    auto r = p.accessRatios();
    EXPECT_EQ(r.totalAccesses, 192u);
    EXPECT_NEAR(r.streaming, 128.0 / 192.0, 1e-9);
    EXPECT_NEAR(r.readOnly, 128.0 / 192.0, 1e-9);
}

TEST(AccessProfile, AddressBeyondSpanPanics)
{
    AccessProfile p(1, 1 << 20);
    const LocalAddr end = 1 << 20;
    EXPECT_DEATH(p.recordAccess(0, end, false, 0),
                 "address 1048576 at or beyond the 1048576-byte "
                 "partition span");
    EXPECT_DEATH(p.regionReadOnly(0, end + 4096), "partition span");
    EXPECT_DEATH(p.chunkStreaming(0, end), "partition span");
    p.recordAccess(0, end - 1, true, 0);
    EXPECT_FALSE(p.regionReadOnly(0, end - 1));
}

TEST(AccessProfile, TimeGoingBackwardsPanics)
{
    AccessProfile p(2, kSpan);
    p.recordAccess(0, 0, false, 100);
    p.recordAccess(0, 128, false, 100); // equal cycles are fine
    p.recordAccess(1, 0, false, 50);    // partitions keep their own time
    EXPECT_DEATH(p.recordAccess(0, 4096, false, 99),
                 "partition 0 access at cycle 99 after one at cycle 100");
    p.finalize();
    p.recordAccess(0, 4096, false, 100);
}

TEST(AccessProfile, ChunkVerdictsHoldUntilTheNextFinalize)
{
    // A chunk's streaming verdict is read from the bits finalize()
    // builds: accesses recorded afterwards change it only at the next
    // finalize. Region writes take effect as they are recorded.
    AccessProfile p(1, kSpan);
    Cycle now = 0;
    for (int s = 0; s < 128; ++s)
        p.recordAccess(0, static_cast<LocalAddr>(s) * 32, false, now++);
    p.finalize();
    EXPECT_TRUE(p.chunkStreaming(0, 0));

    // Three sparse phases, each closed by the timeout: random wins the
    // vote 3:1, but only once finalized.
    for (int phase = 0; phase < 3; ++phase) {
        p.recordAccess(0, 5 * 128, true, now);
        now += 100000;
    }
    EXPECT_TRUE(p.chunkStreaming(0, 0));
    EXPECT_FALSE(p.regionReadOnly(0, 0));
    p.finalize();
    EXPECT_FALSE(p.chunkStreaming(0, 0));
}

TEST(AccessProfile, RetainedTruthNeedsAFinalize)
{
    // The retained truth is the profile as of its last finalize(), so
    // taking it with accesses recorded since is a caller bug. It keeps
    // the span check, and ids past its right-sized bits read as never
    // written and streaming.
    AccessProfile p(1, 1 << 20);
    p.recordAccess(0, 0, true, 0);
    EXPECT_DEATH(p.truth(), "recorded since the last finalize");
    p.finalize();
    const TruthProfile t = p.truth();
    EXPECT_FALSE(t.regionReadOnly(0, 0));
    EXPECT_TRUE(t.regionReadOnly(0, (1 << 20) - 1));
    EXPECT_TRUE(t.chunkStreaming(0, (1 << 20) - 1));
    EXPECT_DEATH(t.chunkStreaming(0, 1 << 20), "partition span");
}
