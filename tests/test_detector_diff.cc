/**
 * @file
 * Differential fuzzing of the hardware detectors against the offline
 * oracle, and of the whole prediction machinery against the functional
 * MEE datapath.
 *
 * The contract under test: detector mispredictions are a *performance*
 * phenomenon. The hardware read-only detector may deny read-only
 * status to a truly read-only region (aliasing, never-set entries) but
 * must never grant it to a region the kernel has written; and no
 * combination of predictions may ever change what a verified read
 * decrypts to.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "detect/oracle.hh"
#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "mee/functional.hh"

using namespace shmgpu;
using namespace shmgpu::detect;
using shmgpu::crypto::DataBlock;

namespace
{

constexpr unsigned kPartitions = 2;
constexpr std::uint64_t kRegionBytes = 16 * 1024;
constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kBlockBytes = 128;
constexpr std::uint64_t kSpaceBytes = 1 << 20;
constexpr std::uint64_t kBlocks = kSpaceBytes / kBlockBytes;

DataBlock
randomBlock(Rng &rng)
{
    DataBlock b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

} // namespace

class DetectorDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * Read-only prediction is one-sided: the hardware bit vector (small,
 * tagless, aliasing) may *miss* read-only regions, but whenever the
 * oracle says a region was written, the hardware must agree it is not
 * read-only.
 */
TEST_P(DetectorDiff, ReadOnlyPredictionIsOneSidedVsOracle)
{
    Rng rng(GetParam());
    AccessProfile oracle(kPartitions, kSpaceBytes, kRegionBytes,
                         kChunkBytes, kBlockBytes);
    // Deliberately tiny: 8 entries over a 64-region space forces
    // heavy aliasing, the misprediction source under test.
    ReadOnlyDetectorParams ro_params;
    ro_params.entries = 8;
    ro_params.regionBytes = kRegionBytes;
    std::vector<ReadOnlyDetector> hw;
    for (unsigned p = 0; p < kPartitions; ++p)
        hw.emplace_back(ro_params);

    // Phase 1: host copies mark a random subset of regions read-only.
    // (The oracle only observes kernel traffic; marking is the
    // command-processor path.)
    const std::uint64_t regions = kSpaceBytes / kRegionBytes;
    for (std::uint64_t r = 0; r < regions; ++r)
        if (rng.chance(0.5))
            for (unsigned p = 0; p < kPartitions; ++p)
                hw[p].markInputRegion(r * kRegionBytes, kRegionBytes);

    // Phase 2: a random kernel access stream, no re-marking.
    Cycle now = 0;
    for (int step = 0; step < 20000; ++step) {
        PartitionId part = static_cast<PartitionId>(
            rng.below(kPartitions));
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        bool is_write = rng.chance(0.2);
        oracle.recordAccess(part, addr, is_write, now);
        if (is_write)
            hw[part].recordWrite(addr);
        now += 1 + rng.below(4);
    }
    oracle.finalize();

    for (unsigned p = 0; p < kPartitions; ++p) {
        for (std::uint64_t r = 0; r < regions; ++r) {
            LocalAddr probe = r * kRegionBytes;
            if (!oracle.regionReadOnly(p, probe)) {
                EXPECT_FALSE(hw[p].isReadOnly(probe))
                    << "partition " << p << " region " << r
                    << ": hardware claims read-only but the oracle "
                       "saw a write";
                // Provenance must blame a write, not initialization.
                NotReadOnlyCause cause = hw[p].causeFor(probe);
                EXPECT_TRUE(cause == NotReadOnlyCause::WrittenSelf ||
                            cause == NotReadOnlyCause::WrittenAlias ||
                            cause == NotReadOnlyCause::NeverSet);
            }
        }
    }
}

/**
 * With unlimited trackers (the paper's oracle configuration) and a
 * stream whose chunks each have a consistent personality, the online
 * detector and the offline profile must classify every chunk the same
 * way — and correctly.
 */
TEST_P(DetectorDiff, OracleModeStreamingMatchesProfile)
{
    Rng rng(GetParam() ^ 0xabcdef);
    AccessProfile oracle(1, kSpaceBytes, kRegionBytes, kChunkBytes,
                         kBlockBytes);
    StreamingDetectorParams params;
    params.trackers = 0; // unlimited (oracle mode)
    params.chunkBytes = kChunkBytes;
    params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector hw(params);
    std::vector<DetectionEvent> events;

    const std::uint64_t chunks = 32;
    const std::uint64_t blocks_per_chunk = kChunkBytes / kBlockBytes;
    std::vector<bool> role(chunks);
    for (std::uint64_t c = 0; c < chunks; ++c)
        role[c] = rng.chance(0.5); // true = streaming personality

    Cycle now = 0;
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t c = 0; c < chunks; ++c) {
            if (role[c]) {
                // Full sequential pass: every block touched.
                for (std::uint64_t b = 0; b < blocks_per_chunk; ++b) {
                    LocalAddr addr = c * kChunkBytes + b * kBlockBytes;
                    hw.access(addr, false, now, events);
                    oracle.recordAccess(0, addr, false, now);
                    ++now;
                }
            } else {
                // Sparse: a few repeated blocks, gaps left.
                for (int i = 0; i < 6; ++i) {
                    std::uint64_t b = rng.below(4);
                    LocalAddr addr = c * kChunkBytes + b * kBlockBytes;
                    hw.access(addr, false, now, events);
                    oracle.recordAccess(0, addr, false, now);
                    ++now;
                }
            }
        }
    }
    hw.finalizeAll(now, events);
    oracle.finalize();

    for (std::uint64_t c = 0; c < chunks; ++c) {
        LocalAddr probe = c * kChunkBytes;
        EXPECT_EQ(hw.predictStreaming(probe), role[c])
            << "chunk " << c << " online classification";
        EXPECT_EQ(oracle.chunkStreaming(0, probe), role[c])
            << "chunk " << c << " oracle classification";
    }
}

/**
 * Whatever a random stream does to a capacity-limited detector, its
 * detection events must be internally consistent: `detected` is
 * exactly full block coverage, coverage exits are always detections,
 * and budget/timeout exits never are.
 */
TEST_P(DetectorDiff, DetectionEventsAreInternallyConsistent)
{
    Rng rng(GetParam() ^ 0x5eed);
    StreamingDetectorParams params;
    params.trackers = 2; // scarce: forces timeouts and reclaims
    params.chunkBytes = kChunkBytes;
    params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector hw(params);
    std::vector<DetectionEvent> events;

    const std::uint64_t blocks_per_chunk = kChunkBytes / kBlockBytes;
    const std::uint64_t full_mask = (blocks_per_chunk >= 64)
                                        ? ~0ull
                                        : (1ull << blocks_per_chunk) - 1;
    Cycle now = 0;
    for (int step = 0; step < 30000; ++step) {
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        hw.access(addr, rng.chance(0.3), now, events);
        now += 1 + rng.below(8);
    }
    hw.finalizeAll(now, events);

    ASSERT_FALSE(events.empty());
    for (const DetectionEvent &ev : events) {
        EXPECT_EQ(ev.detectedStreaming,
                  (ev.accessMask & full_mask) == full_mask);
        if (ev.exit == PhaseExit::Coverage)
            EXPECT_TRUE(ev.detectedStreaming);
        else
            EXPECT_FALSE(ev.detectedStreaming);
    }
}

/**
 * The headline property: mispredictions may change bandwidth, never
 * values. A random operation mix driven by a deliberately tiny
 * (=constantly wrong) read-only detector and a scarce streaming
 * detector must still verify and decrypt every read exactly.
 */
TEST_P(DetectorDiff, MispredictionsNeverBreakFunctionalCorrectness)
{
    Rng rng(GetParam() ^ 0xf00d);
    ReadOnlyDetectorParams ro_params;
    ro_params.entries = 4; // maximal aliasing
    ro_params.regionBytes = kRegionBytes;
    meta::LayoutParams layout;
    layout.dataBytes = kSpaceBytes;
    mee::SecureMemoryContext ctx(layout, GetParam(), ro_params);

    StreamingDetectorParams sd_params;
    sd_params.trackers = 2;
    sd_params.chunkBytes = kChunkBytes;
    sd_params.blockBytes = static_cast<std::uint32_t>(kBlockBytes);
    StreamingDetector streaming(sd_params);
    std::vector<DetectionEvent> events;

    std::map<LocalAddr, DataBlock> shadow;
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        LocalAddr addr = rng.below(kBlocks) * kBlockBytes;
        streaming.access(addr, rng.chance(0.3), now, events);
        switch (rng.below(6)) {
          case 0: { // host copy; let the (possibly wrong) streaming
                    // prediction pick the marking path
            DataBlock b = randomBlock(rng);
            ctx.hostWrite(addr, b, streaming.predictStreaming(addr));
            shadow[addr] = b;
            break;
          }
          case 1:
          case 2: { // kernel store (may fire an RO transition)
            DataBlock b = randomBlock(rng);
            ctx.deviceWrite(addr, b);
            shadow[addr] = b;
            break;
          }
          default: { // kernel load: must verify and match
            auto it = shadow.find(addr);
            if (it == shadow.end())
                break;
            mee::FunctionalReadResult r = ctx.deviceRead(addr);
            ASSERT_EQ(r.status, mee::VerifyStatus::Ok)
                << "step " << step << " addr " << addr;
            ASSERT_EQ(r.data, it->second)
                << "step " << step << " addr " << addr;
            break;
          }
        }
        now += 1 + rng.below(16);
    }

    // Closing sweep: every shadowed block still reads back exactly.
    for (const auto &[addr, data] : shadow) {
        mee::FunctionalReadResult r = ctx.deviceRead(addr);
        ASSERT_EQ(r.status, mee::VerifyStatus::Ok) << "addr " << addr;
        ASSERT_EQ(r.data, data) << "addr " << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorDiff,
                         ::testing::Values(1ull, 42ull, 0xdecafull,
                                           0x123456789ull));
