/**
 * @file
 * Differential fuzz of AccessProfile's lazy per-chunk oracle phases
 * against the detector-backed profile in
 * tests/reference_access_profile.hh, which runs an unlimited-MAT
 * StreamingDetector with eager timeout expiry.
 *
 * Randomized multi-partition sector streams with monotone `now` mix
 * sequential chunk sweeps (coverage exits), hot chunks hammered on a
 * few blocks (budget exits), sparse touches that time out, stragglers
 * inside the cooldown window, bursts of more coverage exits than the
 * cooldown ring holds (so it wraps and stragglers of evicted chunks
 * open phases), writes, and finalize at random points. After every
 * finalize the two profiles must agree on regionReadOnly and
 * chunkStreaming for every region and chunk id of the span, touched
 * or not, on the forEachChunk and forEachWrittenRegion sequences, and
 * on accessRatios; the profile's query bits must answer every
 * touched id as its own per-chunk records do; and the TruthProfile
 * it retains must answer every one of those queries exactly as the
 * full profile does.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "detect/oracle.hh"
#include "reference_access_profile.hh"

using namespace shmgpu;
using namespace shmgpu::detect;

namespace
{

constexpr unsigned kPartitions = 3;
constexpr std::uint64_t kSpanBytes = 8 << 20;
constexpr std::uint64_t kRegionBytes = 16 * 1024;
constexpr std::uint64_t kChunkBytes = 4096;
constexpr std::uint64_t kSectorBytes = 32;
constexpr std::uint64_t kChunks = kSpanBytes / kChunkBytes;
constexpr std::uint64_t kSectorsPerChunk = kChunkBytes / kSectorBytes;
/** The oracle's phase rules (StreamingDetectorParams defaults). */
constexpr Cycle kTimeout = 6000;
constexpr Cycle kCooldown = 3000;

using ChunkSeq = std::vector<std::pair<std::uint64_t, bool>>;

/** The lazy profile and the reference, fed the same calls. */
class Pair
{
  public:
    Pair() : dut(kPartitions, kSpanBytes), ref(kPartitions) {}

    void
    access(PartitionId p, LocalAddr addr, bool is_write, Cycle now)
    {
        dut.recordAccess(p, addr, is_write, now);
        ref.recordAccess(p, addr, is_write, now);
        ++accesses;
    }

    /** finalize both, then compare every query. */
    void
    finalizeAndCompare(Cycle now)
    {
        dut.finalize();
        ref.finalize(now);
        ++finalizes;
        compareRetained(dut.truth());
        if (::testing::Test::HasFatalFailure())
            return;

        for (PartitionId p = 0; p < kPartitions; ++p) {
            SCOPED_TRACE(p);
            for (std::uint64_t c = 0; c < kChunks; ++c)
                ASSERT_EQ(dut.chunkStreaming(p, c * kChunkBytes),
                          ref.chunkStreaming(p, c * kChunkBytes))
                    << "chunk " << c;
            for (LocalAddr a = 0; a < kSpanBytes; a += kRegionBytes)
                ASSERT_EQ(dut.regionReadOnly(p, a),
                          ref.regionReadOnly(p, a))
                    << "region " << a / kRegionBytes;

            ChunkSeq dut_chunks, ref_chunks;
            dut.forEachChunk(p, [&](std::uint64_t c, bool s) {
                dut_chunks.emplace_back(c, s);
            });
            ref.forEachChunk(p, [&](std::uint64_t c, bool s) {
                ref_chunks.emplace_back(c, s);
            });
            ASSERT_EQ(dut_chunks, ref_chunks);
            for (const auto &[c, s] : ref_chunks)
                (s ? streamingChunks : randomChunks) += 1;
            // The query bits finalize() built answer every touched
            // chunk as its vote record does.
            for (const auto &[c, s] : dut_chunks)
                ASSERT_EQ(dut.chunkStreaming(p, c * kChunkBytes), s)
                    << "bit and record disagree on chunk " << c;

            std::vector<std::uint64_t> dut_regions, ref_regions;
            dut.forEachWrittenRegion(
                p, [&](std::uint64_t r) { dut_regions.push_back(r); });
            ref.forEachWrittenRegion(
                p, [&](std::uint64_t r) { ref_regions.push_back(r); });
            ASSERT_EQ(dut_regions, ref_regions);
            writtenRegions += ref_regions.size();
            for (std::uint64_t r : dut_regions)
                ASSERT_FALSE(dut.regionReadOnly(p, r * kRegionBytes))
                    << "region " << r;
        }

        const AccessProfile::Ratios a = dut.accessRatios();
        const AccessProfile::Ratios b = ref.accessRatios();
        ASSERT_EQ(a.totalAccesses, b.totalAccesses);
        ASSERT_EQ(a.streaming, b.streaming);
        ASSERT_EQ(a.readOnly, b.readOnly);
    }

    /** The retained truth against the full profile, query by query. */
    void
    compareRetained(const TruthProfile &truth) const
    {
        for (PartitionId p = 0; p < kPartitions; ++p) {
            SCOPED_TRACE(p);
            for (std::uint64_t c = 0; c < kChunks; ++c)
                ASSERT_EQ(truth.chunkStreaming(p, c * kChunkBytes),
                          dut.chunkStreaming(p, c * kChunkBytes))
                    << "retained chunk " << c;
            for (LocalAddr a = 0; a < kSpanBytes; a += kRegionBytes)
                ASSERT_EQ(truth.regionReadOnly(p, a),
                          dut.regionReadOnly(p, a))
                    << "retained region " << a / kRegionBytes;

            ChunkSeq full_chunks, kept_chunks;
            dut.forEachChunk(p, [&](std::uint64_t c, bool s) {
                full_chunks.emplace_back(c, s);
            });
            truth.forEachChunk(p, [&](std::uint64_t c, bool s) {
                kept_chunks.emplace_back(c, s);
            });
            ASSERT_EQ(kept_chunks, full_chunks);

            std::vector<std::uint64_t> full_regions, kept_regions;
            dut.forEachWrittenRegion(
                p, [&](std::uint64_t r) { full_regions.push_back(r); });
            truth.forEachWrittenRegion(
                p, [&](std::uint64_t r) { kept_regions.push_back(r); });
            ASSERT_EQ(kept_regions, full_regions);
        }
        const AccessProfile::Ratios a = truth.accessRatios();
        const AccessProfile::Ratios b = dut.accessRatios();
        ASSERT_EQ(a.totalAccesses, b.totalAccesses);
        ASSERT_EQ(a.streaming, b.streaming);
        ASSERT_EQ(a.readOnly, b.readOnly);
    }

    std::uint64_t accesses = 0;
    std::uint64_t finalizes = 0;
    std::uint64_t streamingChunks = 0;
    std::uint64_t randomChunks = 0;
    std::uint64_t writtenRegions = 0;

  private:
    AccessProfile dut;
    test::ReferenceAccessProfile ref;
};

LocalAddr
sectorAddr(std::uint64_t chunk, std::uint64_t sector)
{
    return chunk * kChunkBytes + sector * kSectorBytes;
}

class AccessProfileDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(AccessProfileDiff, LazyPhasesMatchEagerDetector)
{
    Rng rng(GetParam());
    Pair pair;
    Cycle clock = 0;
    auto part = [&] {
        return static_cast<PartitionId>(rng.below(kPartitions));
    };

    constexpr int kSegments = 80;
    for (int seg = 0; seg < kSegments; ++seg) {
        std::uint64_t kind = rng.below(6);
        if (seg < 6)
            kind = static_cast<std::uint64_t>(seg); // every kind per seed
        switch (kind) {
          case 0: { // interleaved sequential sweeps: coverage exits
            const PartitionId p = part();
            const std::uint64_t base = rng.below(kChunks - 32);
            const std::uint64_t fronts = 1 + rng.below(24);
            for (std::uint64_t s = 0; s < kSectorsPerChunk; ++s) {
                for (std::uint64_t f = 0; f < fronts; ++f) {
                    // An occasional skipped sector leaves gaps.
                    if (rng.below(200) == 0)
                        continue;
                    pair.access(p, sectorAddr(base + f, s),
                                rng.below(8) == 0, clock);
                    clock += rng.below(2);
                }
            }
            break;
          }
          case 1: { // hot chunks on a few blocks: budget exits
            const std::uint64_t base = rng.below(kChunks - 8);
            for (int i = 0; i < 1500; ++i) {
                const std::uint64_t sector = rng.below(24) * 4 +
                                             rng.below(4);
                pair.access(part(), sectorAddr(base + rng.below(6), sector),
                            rng.below(4) == 0, clock);
                clock += rng.below(3);
            }
            break;
          }
          case 2: { // sparse touches across the span: timeouts
            for (int i = 0; i < 1500; ++i) {
                pair.access(part(),
                            sectorAddr(rng.below(kChunks),
                                       rng.below(kSectorsPerChunk)),
                            rng.below(3) == 0, clock);
                clock += rng.below(40);
            }
            break;
          }
          case 3: { // a chunk completed, then stragglers in cooldown
            const PartitionId p = part();
            const std::uint64_t chunk = rng.below(kChunks);
            for (std::uint64_t s = 0; s < kSectorsPerChunk; s += 4)
                pair.access(p, sectorAddr(chunk, s), false, clock++);
            const int stragglers = 1 + static_cast<int>(rng.below(6));
            for (int i = 0; i < stragglers; ++i) {
                clock += rng.below(kCooldown / 2);
                pair.access(p,
                            sectorAddr(chunk, rng.below(kSectorsPerChunk)),
                            rng.below(4) == 0, clock);
            }
            break;
          }
          case 4: { // more coverage exits than the ring holds
            const PartitionId p = part();
            const std::uint64_t base = rng.below(kChunks - 24);
            const std::uint64_t n = 9 + rng.below(12);
            for (std::uint64_t c = 0; c < n; ++c)
                for (std::uint64_t b = 0; b < kChunkBytes / 128; ++b)
                    pair.access(p, (base + c) * kChunkBytes + b * 128,
                                false, clock++);
            // Stragglers, still inside every cooldown window: the
            // evicted (oldest) chunks open phases, the rest are
            // absorbed. Some of those phases time out later.
            for (int i = 0; i < 12; ++i) {
                pair.access(p, sectorAddr(base + rng.below(n),
                                          rng.below(kSectorsPerChunk)),
                            rng.below(5) == 0, clock);
                clock += rng.below(2);
            }
            break;
          }
          default: { // a jump past every open phase's deadline
            clock += kTimeout + rng.below(4000);
            pair.access(part(), sectorAddr(rng.below(kChunks), 0),
                        rng.below(2) == 0, clock);
            break;
          }
        }

        if (rng.below(8) == 0) {
            pair.finalizeAndCompare(clock);
            if (HasFatalFailure())
                return;
        }
    }
    pair.finalizeAndCompare(clock + rng.below(2 * kTimeout));
    if (HasFatalFailure())
        return;

    EXPECT_GT(pair.streamingChunks, 0u);
    EXPECT_GT(pair.randomChunks, 0u);
    EXPECT_GT(pair.writtenRegions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessProfileDiff,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));
