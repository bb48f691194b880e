/**
 * @file
 * Functional secure-memory tests: real encryption, integrity and
 * freshness, with genuine physical attacks mounted against the
 * off-chip state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "mee/functional.hh"

using namespace shmgpu;
using namespace shmgpu::mee;
using shmgpu::crypto::DataBlock;

namespace
{

class FunctionalMeeTest : public ::testing::Test
{
  protected:
    FunctionalMeeTest() : ctx(makeLayout(), 42) {}

    static meta::LayoutParams
    makeLayout()
    {
        meta::LayoutParams p;
        p.dataBytes = 1 << 20;
        return p;
    }

    static DataBlock
    pattern(std::uint8_t seed)
    {
        DataBlock b;
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<std::uint8_t>(seed + i * 3);
        return b;
    }

    SecureMemoryContext ctx;
};

} // namespace

TEST_F(FunctionalMeeTest, HostWriteDeviceReadRoundTrip)
{
    DataBlock plain = pattern(1);
    ctx.hostWrite(0x1000, plain);
    auto r = ctx.deviceRead(0x1000);
    EXPECT_EQ(r.status, VerifyStatus::Ok);
    EXPECT_EQ(r.data, plain);
    EXPECT_TRUE(ctx.isReadOnly(0x1000));
}

TEST_F(FunctionalMeeTest, CiphertextIsNotPlaintext)
{
    DataBlock plain = pattern(2);
    ctx.hostWrite(0x2000, plain);
    // Confidentiality: what sits in off-chip memory differs from the
    // plaintext everywhere but by chance.
    DataBlock stored = ctx.memory().readBlock(0x2000);
    int same = 0;
    for (std::size_t i = 0; i < plain.size(); ++i)
        same += (stored[i] == plain[i]);
    EXPECT_LT(same, 8);
}

TEST_F(FunctionalMeeTest, DeviceWriteRoundTrip)
{
    ctx.hostWrite(0x3000, pattern(3));
    DataBlock updated = pattern(99);
    ctx.deviceWrite(0x3000, updated);
    auto r = ctx.deviceRead(0x3000);
    EXPECT_EQ(r.status, VerifyStatus::Ok);
    EXPECT_EQ(r.data, updated);
    EXPECT_FALSE(ctx.isReadOnly(0x3000)) << "write cleared the RO bit";
}

TEST_F(FunctionalMeeTest, TamperingDetected)
{
    ctx.hostWrite(0x4000, pattern(4));
    ctx.memory().corruptByte(0x4000 + 17);
    EXPECT_EQ(ctx.deviceRead(0x4000).status, VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, MacTamperingDetected)
{
    ctx.hostWrite(0x5000, pattern(5));
    ctx.macStore().corruptBlockMac(0x5000, 0x1);
    EXPECT_EQ(ctx.deviceRead(0x5000).status, VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, SplicingDetected)
{
    // Swap two valid ciphertext blocks: address-bound MACs catch it.
    ctx.hostWrite(0x6000, pattern(6));
    ctx.hostWrite(0x7000, pattern(7));
    DataBlock a = ctx.memory().readBlock(0x6000);
    DataBlock b = ctx.memory().readBlock(0x7000);
    ctx.memory().writeBlock(0x6000, b);
    ctx.memory().writeBlock(0x7000, a);
    EXPECT_EQ(ctx.deviceRead(0x6000).status, VerifyStatus::MacMismatch);
    EXPECT_EQ(ctx.deviceRead(0x7000).status, VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, ReplayDetectedByBmt)
{
    // Classic replay: restore old ciphertext + matching old MAC +
    // old counters. The MAC check passes (it is self-consistent) but
    // the BMT root has moved on.
    ctx.hostWrite(0x8000, pattern(8));
    ctx.deviceWrite(0x8000, pattern(9)); // devolves to per-block
    auto snapshot = ctx.snapshotBlock(0x8000);

    ctx.deviceWrite(0x8000, pattern(10));
    ASSERT_EQ(ctx.deviceRead(0x8000).status, VerifyStatus::Ok);

    ctx.replayBlock(snapshot);
    EXPECT_EQ(ctx.deviceRead(0x8000).status, VerifyStatus::BmtMismatch);
}

TEST_F(FunctionalMeeTest, ReadOnlyDataImmuneToCounterReplay)
{
    // Read-only data uses the on-chip shared counter: there is no
    // off-chip counter state to replay, and any ciphertext/MAC switch
    // is an integrity (not freshness) violation.
    ctx.hostWrite(0x9000, pattern(11));
    auto snap = ctx.snapshotBlock(0x9000);
    // "Replaying" the same values is a no-op...
    ctx.replayBlock(snap);
    EXPECT_EQ(ctx.deviceRead(0x9000).status, VerifyStatus::Ok);
    // ...and stale different content cannot be produced for an RO
    // block at all within one kernel (it was never overwritten).
}

TEST_F(FunctionalMeeTest, RoTransitionKeepsSiblingsReadable)
{
    // Fig. 8: writing one block of a read-only region propagates the
    // shared counter into per-block counters; the untouched siblings
    // must still decrypt and verify.
    for (LocalAddr a = 0; a < 16 * 1024; a += 128)
        ctx.hostWrite(a, pattern(static_cast<std::uint8_t>(a >> 7)));
    ASSERT_TRUE(ctx.isReadOnly(0));

    ctx.deviceWrite(2 * 128, pattern(200));
    EXPECT_FALSE(ctx.isReadOnly(0));

    auto changed = ctx.deviceRead(2 * 128);
    EXPECT_EQ(changed.status, VerifyStatus::Ok);
    EXPECT_EQ(changed.data, pattern(200));

    for (LocalAddr a = 0; a < 16 * 1024; a += 128) {
        if (a == 2 * 128)
            continue;
        auto r = ctx.deviceRead(a);
        EXPECT_EQ(r.status, VerifyStatus::Ok) << "sibling " << a;
        EXPECT_EQ(r.data, pattern(static_cast<std::uint8_t>(a >> 7)));
    }
}

TEST_F(FunctionalMeeTest, CounterStateMatchesFig8)
{
    for (LocalAddr a = 0; a < 16 * 1024; a += 128)
        ctx.hostWrite(a, pattern(0));
    ctx.deviceWrite(2 * 128, pattern(1));
    // shared=0 at context start: major=shared, written block minor=1.
    EXPECT_EQ(ctx.counters().read(2 * 128),
              (meta::CounterValue{0, 1}));
    EXPECT_EQ(ctx.counters().read(0), (meta::CounterValue{0, 0}));
}

TEST_F(FunctionalMeeTest, MinorOverflowReencryptsRegion)
{
    // Write one block 130 times: the 7-bit minor overflows and the
    // 8 KB region re-encrypts under a bumped major counter.
    ctx.hostWrite(0, pattern(1), /*mark_read_only=*/false);
    ctx.hostWrite(128, pattern(2), false);
    for (int i = 0; i < 130; ++i)
        ctx.deviceWrite(0, pattern(static_cast<std::uint8_t>(i)));

    EXPECT_GE(ctx.counters().read(0).major, 1u);
    auto r0 = ctx.deviceRead(0);
    EXPECT_EQ(r0.status, VerifyStatus::Ok);
    EXPECT_EQ(r0.data, pattern(129));
    auto r1 = ctx.deviceRead(128);
    EXPECT_EQ(r1.status, VerifyStatus::Ok);
    EXPECT_EQ(r1.data, pattern(2)) << "sibling survived re-encryption";
}

TEST_F(FunctionalMeeTest, ChunkMacVerifies)
{
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.hostWrite(a, pattern(static_cast<std::uint8_t>(a)));
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);
}

TEST_F(FunctionalMeeTest, ChunkMacCatchesTampering)
{
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.hostWrite(a, pattern(static_cast<std::uint8_t>(a)));
    ctx.memory().corruptByte(7 * 128 + 3);
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, ChunkMacTracksDeviceWrites)
{
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.hostWrite(a, pattern(3));
    ctx.deviceWrite(128, pattern(77));
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);
}

TEST_F(FunctionalMeeTest, InputReadOnlyResetRearmsRegion)
{
    // Multi-kernel input reuse (Fig. 9): after kernel writes, the API
    // re-arms the region read-only with a raised shared counter.
    ctx.hostWrite(0xA000, pattern(20));
    ctx.deviceWrite(0xA000, pattern(21));
    ASSERT_FALSE(ctx.isReadOnly(0xA000));

    std::uint64_t shared_before = ctx.sharedCounter().value();
    ctx.inputReadOnlyReset(0xA000 - (0xA000 % (16 * 1024)), 16 * 1024);
    EXPECT_GT(ctx.sharedCounter().value(), shared_before);
    EXPECT_TRUE(ctx.isReadOnly(0xA000));

    // Content survives re-encryption (option b).
    auto r = ctx.deviceRead(0xA000);
    EXPECT_EQ(r.status, VerifyStatus::Ok);
    EXPECT_EQ(r.data, pattern(21));

    // The reuse pattern: another reset (no re-encryption, the host is
    // about to overwrite) followed by a fresh copy.
    ctx.inputReadOnlyReset(0xA000 - (0xA000 % (16 * 1024)), 16 * 1024,
                           /*reencrypt=*/false);
    ctx.hostWrite(0xA000, pattern(22));
    auto r2 = ctx.deviceRead(0xA000);
    EXPECT_EQ(r2.status, VerifyStatus::Ok);
    EXPECT_EQ(r2.data, pattern(22));
}

TEST_F(FunctionalMeeTest, CrossKernelReplayDefeated)
{
    // Cross-kernel replay (Section III-B): kernel 1's read-only data
    // must not be replayable into kernel 2 after the region is reused.
    ctx.hostWrite(0xB000, pattern(30)); // kernel 1 input
    auto old_snapshot = ctx.snapshotBlock(0xB000);

    // Kernel 1 writes the region; the host then reuses it for kernel 2
    // via InputReadOnlyReset + a fresh copy.
    ctx.deviceWrite(0xB000, pattern(31));
    ctx.inputReadOnlyReset(0xB000 - (0xB000 % (16 * 1024)), 16 * 1024,
                           /*reencrypt=*/false);
    ctx.hostWrite(0xB000, pattern(32));
    ASSERT_EQ(ctx.deviceRead(0xB000).data, pattern(32));

    // Attacker replays kernel 1's ciphertext + MAC. The shared counter
    // has advanced, so the stateful MAC (bound to the new counter
    // value) rejects the stale pair.
    ctx.memory().writeBlock(0xB000, old_snapshot.ciphertext);
    ctx.macStore().setBlockMac(0xB000, old_snapshot.mac);
    EXPECT_EQ(ctx.deviceRead(0xB000).status, VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, HostWriteRangeCopiesBuffers)
{
    std::vector<std::uint8_t> buf(1024);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 7);
    ctx.hostWriteRange(0xC000, buf.data(), buf.size());
    for (LocalAddr a = 0; a < 1024; a += 128) {
        auto r = ctx.deviceRead(0xC000 + a);
        ASSERT_EQ(r.status, VerifyStatus::Ok);
        for (int i = 0; i < 128; ++i)
            ASSERT_EQ(r.data[i], buf[a + i]);
    }
}

TEST_F(FunctionalMeeTest, AliasedRegionStillDecrypts)
{
    // Bit-vector aliasing can only miss-classify read-only as
    // not-read-only; decryption must still work because shared=0
    // coincides with the default per-block pair (Section IV-B).
    detect::ReadOnlyDetectorParams tiny;
    tiny.entries = 2;
    tiny.regionBytes = 16 * 1024;
    SecureMemoryContext small(makeLayout(), 43, tiny);

    small.hostWrite(0, pattern(50)); // region 0 -> bit 0
    // A write to region 2 (same bit) clears region 0's read-only view.
    small.deviceWrite(2 * 16 * 1024, pattern(51));
    ASSERT_FALSE(small.isReadOnly(0));

    auto r = small.deviceRead(0);
    EXPECT_EQ(r.status, VerifyStatus::Ok);
    EXPECT_EQ(r.data, pattern(50));
}

TEST_F(FunctionalMeeTest, ChunkGranularityVerificationEndToEnd)
{
    // The functional counterpart of the SHM dual-granularity read
    // path: stream-write a chunk, verify it wholesale via the chunk
    // MAC, and confirm the chunk MAC stays consistent through
    // read-only transitions and single-block rewrites.
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.hostWrite(a, pattern(static_cast<std::uint8_t>(a >> 7)));
    ASSERT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);

    // A kernel write devolves the region; the chunk MAC follows.
    ctx.deviceWrite(5 * 128, pattern(201));
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);

    // Streaming overwrite of the whole chunk.
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.deviceWrite(a, pattern(static_cast<std::uint8_t>(a >> 6)));
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);

    // Every block also verifies individually (remedy #2's premise:
    // at least one granularity is always current — here both are).
    for (LocalAddr a = 0; a < 4096; a += 128)
        EXPECT_EQ(ctx.deviceRead(a).status, VerifyStatus::Ok);

    // And chunk-level detection of tampering still works afterwards.
    ctx.memory().corruptByte(17 * 128 + 1);
    EXPECT_EQ(ctx.verifyChunk(0), VerifyStatus::MacMismatch);
}

TEST_F(FunctionalMeeTest, ChunkVerifyAfterCounterReplay)
{
    // Freshness must surface through the chunk path too: replaying a
    // block's counters makes the recomputed block MAC (and hence the
    // chunk MAC) disagree.
    for (LocalAddr a = 0; a < 4096; a += 128)
        ctx.hostWrite(a, pattern(9), /*mark_read_only=*/false);
    auto snap = ctx.snapshotBlock(7 * 128);
    ctx.deviceWrite(7 * 128, pattern(10));
    ASSERT_EQ(ctx.verifyChunk(0), VerifyStatus::Ok);

    ctx.replayBlock(snap);
    EXPECT_NE(ctx.verifyChunk(0), VerifyStatus::Ok);
}

TEST_F(FunctionalMeeTest, StateDigestIsPinned)
{
    // A fixed script through every state-changing path of the context,
    // then one fingerprint over all off-chip state and the read
    // results. The constant was recorded before the functional stores
    // went dense and SipHash went word-at-a-time: any change to a
    // ciphertext, MAC, chunk MAC or BMT digest moves it.
    constexpr std::uint64_t kBytes = 1 << 20;
    constexpr std::uint64_t kRegion = 16 * 1024;
    Rng rng(2026);
    std::vector<std::uint8_t> buf(64 * 1024);
    for (auto &byte : buf)
        byte = static_cast<std::uint8_t>(rng.next());
    auto random_block = [&] { return rng.below(kBytes / 128) * 128; };

    // Host copies: the all-fresh batched path, then the per-block
    // fallback (a copy not marked read-only).
    ctx.hostWriteRange(0, buf.data(), 64 * 1024);
    ctx.hostWriteRange(0x20000, buf.data(), 8 * 1024,
                       /*mark_read_only=*/false);

    // Kernel writes: a read-only -> not-read-only transition, a
    // read-only copy over the devolved region (per-block fallback),
    // a minor-counter overflow into reencryptRegion, scattered stores.
    ctx.deviceWrite(0x1080, pattern(1));
    ctx.hostWriteRange(0, buf.data() + 4096, 4096);
    for (int i = 0; i < 130; ++i)
        ctx.deviceWrite(0x20080, pattern(static_cast<std::uint8_t>(i)));
    for (int i = 0; i < 200; ++i)
        ctx.deviceWrite(random_block(),
                        pattern(static_cast<std::uint8_t>(rng.next())));

    // InputReadOnlyReset with re-encryption, and without it followed
    // by a fresh copy of half the region (the other half goes stale).
    ctx.inputReadOnlyReset(0x20000, kRegion, /*reencrypt=*/true);
    ctx.inputReadOnlyReset(0x4000, kRegion, /*reencrypt=*/false);
    ctx.hostWriteRange(0x4000, buf.data() + 8192, kRegion / 2);

    Fingerprint fp;
    std::vector<LocalAddr> addrs;
    for (LocalAddr a = 0x4000; a < 0x4000 + kRegion; a += 1024)
        addrs.push_back(a);
    for (int i = 0; i < 80; ++i)
        addrs.push_back(random_block());
    std::vector<FunctionalReadResult> reads(addrs.size());
    ctx.deviceReadBatch(addrs.data(), reads.data(), addrs.size());
    std::size_t ok = 0;
    for (const auto &r : reads) {
        ok += r.status == VerifyStatus::Ok;
        fp.u64(static_cast<std::uint64_t>(r.status));
        fp.bytes(r.data.data(), r.data.size());
    }
    EXPECT_GT(ok, addrs.size() / 2);
    for (LocalAddr chunk : std::vector<LocalAddr>{
             0, 0x4000, 0x5000, 0x20000, 0x80000, kBytes - 4096})
        fp.u64(static_cast<std::uint64_t>(ctx.verifyChunk(chunk)));

    for (LocalAddr a = 0; a < kBytes; a += 128) {
        DataBlock cipher = ctx.memory().readBlock(a);
        fp.bytes(cipher.data(), cipher.size());
        auto mac = ctx.macStore().blockMac(a);
        fp.boolean(mac.has_value());
        fp.u64(mac.value_or(0));
    }
    for (LocalAddr a = 0; a < kBytes; a += 4096) {
        auto mac = ctx.macStore().chunkMac(a);
        fp.boolean(mac.has_value());
        fp.u64(mac.value_or(0));
    }
    fp.u64(ctx.tree().root());
    EXPECT_EQ(fp.value(), 0x3138607798671d00ull)
        << std::hex << fp.value();
}
