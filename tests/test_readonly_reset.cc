/**
 * @file
 * InputReadOnlyReset reset-then-reuse semantics, exercised directly at
 * every layer that implements a piece of it: the read-only predictor's
 * resetReadOnly/reset, the streaming detector's reset, the shared
 * counter's raiseAbove, and the functional context's full
 * inputReadOnlyReset (Fig. 9) — the machinery the scenario engine's
 * context switches are built from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "mee/functional.hh"
#include "meta/counters.hh"

using namespace shmgpu;
using shmgpu::crypto::DataBlock;
using shmgpu::mee::SecureMemoryContext;

namespace
{

constexpr std::uint64_t kRegion = 16 * 1024;

DataBlock
pattern(std::uint8_t seed)
{
    DataBlock b;
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::uint8_t>(seed + i * 7);
    return b;
}

} // namespace

TEST(ReadOnlyReset, ResetReadOnlyReArmsWrittenRegions)
{
    detect::ReadOnlyDetector det(detect::ReadOnlyDetectorParams{});
    det.markInputRegion(0, 2 * kRegion);
    ASSERT_TRUE(det.isReadOnly(0));
    ASSERT_TRUE(det.isReadOnly(kRegion));

    // A kernel write clears the bit and reports the transition once.
    EXPECT_TRUE(det.recordWrite(128));
    EXPECT_FALSE(det.isReadOnly(0));
    EXPECT_FALSE(det.recordWrite(256)); // already cleared
    EXPECT_EQ(det.causeFor(0), detect::NotReadOnlyCause::WrittenSelf);

    // InputReadOnlyReset re-arms exactly the covered range.
    det.resetReadOnly(0, kRegion);
    EXPECT_TRUE(det.isReadOnly(0));
    EXPECT_TRUE(det.isReadOnly(kRegion)); // untouched, still armed

    // Reuse after the reset behaves like a fresh region: the next
    // write is again a transition.
    EXPECT_TRUE(det.recordWrite(0));
}

TEST(ReadOnlyReset, FullResetDropsProvenance)
{
    detect::ReadOnlyDetector det(detect::ReadOnlyDetectorParams{});
    det.markInputRegion(0, kRegion);
    det.recordWrite(0);
    ASSERT_EQ(det.causeFor(0), detect::NotReadOnlyCause::WrittenSelf);

    // Context switch: everything back to power-on defaults, so one
    // tenant's write provenance cannot leak into the next tenant's
    // misprediction attribution.
    det.reset();
    EXPECT_FALSE(det.isReadOnly(0));
    EXPECT_EQ(det.causeFor(0), detect::NotReadOnlyCause::NeverSet);

    // The switch-in re-arm path is a plain markInputRegion replay.
    det.markInputRegion(0, kRegion);
    EXPECT_TRUE(det.isReadOnly(0));
    EXPECT_EQ(det.causeFor(2 * kRegion),
              detect::NotReadOnlyCause::NeverSet);
}

TEST(ReadOnlyReset, StreamingDetectorResetForgetsPhases)
{
    detect::StreamingDetectorParams p;
    detect::StreamingDetector det(p);
    // Open a monitoring phase, then reset mid-phase (the context
    // switch runs finalizeAll first; this checks reset alone leaves
    // no tracker or classification behind).
    std::vector<detect::DetectionEvent> events;
    det.access(0, /*is_write=*/false, 0, events);
    det.reset();

    std::vector<detect::DetectionEvent> after;
    det.finalizeAll(1000, after);
    EXPECT_TRUE(after.empty()) << "reset() left a live tracker";
}

TEST(ReadOnlyReset, SharedCounterRaiseIsMonotonic)
{
    meta::SharedCounter c;
    const std::uint64_t start = c.value();
    c.raiseAbove(41);
    EXPECT_GT(c.value(), 41u);
    const std::uint64_t raised = c.value();
    // Raising above an already-passed maximum still advances — the
    // new (shared, 0) pair must be fresh even if the scan maxed below
    // the current value.
    c.raiseAbove(0);
    EXPECT_GT(c.value(), raised);
    EXPECT_GT(c.value(), start);
}

TEST(ReadOnlyReset, FunctionalResetThenReuseWithReencrypt)
{
    meta::LayoutParams lp;
    lp.dataBytes = 1 << 20;
    SecureMemoryContext ctx(lp, 99);

    DataBlock input = pattern(3);
    ctx.hostWrite(0x8000, input);
    ASSERT_TRUE(ctx.isReadOnly(0x8000));

    // Kernel writes devolve the region to per-block counters.
    DataBlock output = pattern(9);
    ctx.deviceWrite(0x8000, output);
    ASSERT_FALSE(ctx.isReadOnly(0x8000));
    const std::uint64_t before = ctx.sharedCounter().value();

    // Fig. 9 option (b): reset with re-encryption keeps the content
    // readable under the raised shared counter.
    ctx.inputReadOnlyReset(0x8000, 128, /*reencrypt=*/true);
    EXPECT_GT(ctx.sharedCounter().value(), before);
    EXPECT_TRUE(ctx.isReadOnly(0x8000));
    auto r = ctx.deviceRead(0x8000);
    EXPECT_EQ(r.status, mee::VerifyStatus::Ok);
    EXPECT_EQ(r.data, output);
}

TEST(ReadOnlyReset, FunctionalResetThenReuseWithFreshCopy)
{
    meta::LayoutParams lp;
    lp.dataBytes = 1 << 20;
    SecureMemoryContext ctx(lp, 99);

    ctx.hostWrite(0x8000, pattern(3));
    ctx.deviceWrite(0x8000, pattern(9));

    // The common multi-kernel reuse pattern: reset without
    // re-encryption, then the host copies fresh input. The new
    // (shared', 0) pad is used exactly once and the block round-trips.
    ctx.inputReadOnlyReset(0x8000, 128, /*reencrypt=*/false);
    EXPECT_TRUE(ctx.isReadOnly(0x8000));

    DataBlock fresh = pattern(27);
    ctx.hostWrite(0x8000, fresh);
    auto r = ctx.deviceRead(0x8000);
    EXPECT_EQ(r.status, mee::VerifyStatus::Ok);
    EXPECT_EQ(r.data, fresh);

    // Other read-only regions followed the raise and stay readable.
    DataBlock side = pattern(33);
    ctx.hostWrite(0x10000, side);
    ctx.inputReadOnlyReset(0x8000, 128, /*reencrypt=*/false);
    auto r2 = ctx.deviceRead(0x10000);
    EXPECT_EQ(r2.status, mee::VerifyStatus::Ok);
    EXPECT_EQ(r2.data, side);
}

TEST(ReadOnlyReset, AliasedRegionSurvivesResetElsewhere)
{
    // A 32 MiB context is twice the default detector's coverage, so
    // regions R and R + coverage share one tagless detector entry. A
    // kernel write to R clears that entry for both; a later
    // InputReadOnlyReset of an unrelated range raises the shared
    // counter. The untouched aliased region must read back before and
    // after.
    const detect::ReadOnlyDetectorParams ro;
    const std::uint64_t coverage =
        static_cast<std::uint64_t>(ro.entries) * ro.regionBytes;
    meta::LayoutParams lp;
    lp.dataBytes = 2 * coverage;
    SecureMemoryContext ctx(lp, 2027);

    constexpr std::uint64_t kPiece = 64 * 1024;
    constexpr std::size_t kReads = 32;
    const LocalAddr written = 0, aliased = coverage, reset = coverage / 2;
    std::vector<std::uint8_t> data(3 * kPiece);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 131 + i / 251);
    ctx.hostWriteRange(written, data.data(), kPiece, true);
    ctx.hostWriteRange(aliased, data.data() + kPiece, kPiece, true);
    ctx.hostWriteRange(reset, data.data() + 2 * kPiece, kPiece, true);
    ctx.deviceWrite(written, pattern(5));
    ASSERT_FALSE(ctx.isReadOnly(aliased)) << "regions should alias";

    auto aliased_reads_back = [&] {
        LocalAddr addrs[kReads];
        mee::FunctionalReadResult out[kReads];
        for (std::size_t i = 0; i < kReads; ++i)
            addrs[i] = aliased + i * 128;
        ctx.deviceReadBatch(addrs, out, kReads);
        std::size_t ok = 0;
        for (std::size_t i = 0; i < kReads; ++i)
            ok += out[i].status == mee::VerifyStatus::Ok &&
                  std::equal(out[i].data.begin(), out[i].data.end(),
                             data.begin() + kPiece + i * 128);
        return ok;
    };
    EXPECT_EQ(aliased_reads_back(), kReads);

    ctx.inputReadOnlyReset(reset, kPiece, /*reencrypt=*/false);
    ctx.hostWriteRange(reset, data.data(), kPiece, true);
    EXPECT_EQ(aliased_reads_back(), kReads);
}
