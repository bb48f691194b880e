/**
 * @file
 * Timing-MEE tests: per-scheme metadata traffic, the shared-counter
 * read-only path, common counters, dual-granularity MACs, and the
 * victim-cache interface — driven through a mock DRAM router.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "detect/oracle.hh"
#include "mee/engine.hh"
#include "mem/addr_map.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;
using namespace shmgpu::mee;

namespace
{

/** Records every metadata transaction the MEE issues. */
class MockRouter : public DramRouter
{
  public:
    struct Txn
    {
        PartitionId target;
        Addr addr;
        std::uint32_t bytes;
        mem::AccessType type;
        mem::TrafficClass cls;
    };

    Cycle
    enqueueMeta(PartitionId target, Addr bank_addr, std::uint32_t bytes,
                mem::AccessType type, mem::TrafficClass cls,
                Cycle now) override
    {
        txns.push_back({target, bank_addr, bytes, type, cls});
        return now + 50;
    }

    std::uint64_t
    bytesOf(mem::TrafficClass cls) const
    {
        std::uint64_t total = 0;
        for (const auto &t : txns)
            if (t.cls == cls)
                total += t.bytes;
        return total;
    }

    std::vector<Txn> txns;
};

/** Scripted victim-cache stub. */
class MockVictim : public VictimCacheIf
{
  public:
    bool victimActive() const override { return active; }

    bool
    victimProbe(Addr addr) override
    {
        probes.push_back(addr);
        return hit;
    }

    void
    victimInsert(Addr addr, std::uint32_t, std::uint32_t,
                 mem::TrafficClass, Cycle) override
    {
        inserts.push_back(addr);
    }

    Cycle victimHitLatency() const override { return 32; }

    bool active = false;
    bool hit = false;
    std::vector<Addr> probes;
    std::vector<Addr> inserts;
};

class MeeEngineTest : public ::testing::Test
{
  protected:
    MeeEngineTest()
        : layout(makeLayout()), map(12, 256),
          common(layout)
    {
    }

    static meta::LayoutParams
    makeLayout()
    {
        meta::LayoutParams p;
        p.dataBytes = 16 << 20;
        return p;
    }

    std::unique_ptr<MeeEngine>
    makeEngine(MeeParams p, VictimCacheIf *victim = nullptr)
    {
        return std::make_unique<MeeEngine>(
            p, 0, &layout, &router, victim, &map,
            p.commonCounters ? &common : nullptr);
    }

    meta::MetadataLayout layout;
    mem::AddressMap map;
    meta::CommonCounterTable common;
    MockRouter router;
};

} // namespace

TEST_F(MeeEngineTest, InsecureModeIsSilent)
{
    MeeParams p;
    p.secure = false;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    EXPECT_EQ(mee.onRead(0, 0, 100), 100u);
    mee.onWrite(0, 0, 100);
    EXPECT_TRUE(router.txns.empty());
}

TEST_F(MeeEngineTest, PssmReadFetchesCounterAndMac)
{
    MeeParams p; // PSSM defaults
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    Cycle ready = mee.onRead(0, 0, 100);
    EXPECT_GT(ready, 100u) << "counter fetch is on the critical path";
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Counter), 32u);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Mac), 32u);
    // Counter missed in the MDC: the BMT path is verified.
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Bmt), 0u);
    for (const auto &t : router.txns)
        EXPECT_EQ(t.target, 0u) << "local addressing stays in-partition";
}

TEST_F(MeeEngineTest, SecondReadHitsMetadataCaches)
{
    auto mee_ptr = makeEngine(MeeParams{});
    MeeEngine &mee = *mee_ptr;
    mee.onRead(0, 0, 100);
    std::size_t after_first = router.txns.size();
    // Neighbouring block shares counter sector, MAC sector, BMT path.
    Cycle ready = mee.onRead(128, 128, 200);
    EXPECT_EQ(router.txns.size(), after_first);
    EXPECT_EQ(ready, 200 + 2u) << "MDC hit latency";
}

TEST_F(MeeEngineTest, PhysicalAddressingCrossesPartitions)
{
    MeeParams p;
    p.localMetadataAddressing = false;
    p.sectoredMetadata = false;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Several reads spread over the space: metadata physical addresses
    // map across partitions, producing remote transactions.
    bool remote = false;
    for (int i = 0; i < 8; ++i)
        mee.onRead(i * 64 * 1024, i * 64 * 1024, 100);
    for (const auto &t : router.txns) {
        EXPECT_EQ(t.bytes % 128, 0u) << "unsectored metadata moves lines";
        remote |= (t.target != 0);
    }
    EXPECT_TRUE(remote);
}

TEST_F(MeeEngineTest, ReadOnlyRegionSkipsCounterAndBmt)
{
    MeeParams p;
    p.readOnlyOpt = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    mee.hostCopy(0, 1 << 20);

    mee.onRead(0, 0, 100);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Counter), 0u);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Bmt), 0u);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Mac), 32u)
        << "integrity still needs the MAC";
    EXPECT_EQ(mee.sharedCounterReads(), 1);
}

TEST_F(MeeEngineTest, WriteTransitionPropagatesCounters)
{
    MeeParams p;
    p.readOnlyOpt = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    mee.hostCopy(0, 1 << 20);

    mee.onWrite(0, 0, 100);
    EXPECT_EQ(mee.roTransitions(), 1);
    // Subsequent reads in the region use per-block counters again.
    router.txns.clear();
    mee.onRead(256, 256, 200);
    EXPECT_EQ(mee.sharedCounterReads(), 0);
}

TEST_F(MeeEngineTest, CommonCountersCoverUniformTraffic)
{
    MeeParams p;
    p.commonCounters = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    mee.onRead(0, 0, 100);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Counter), 0u);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Bmt), 0u);
    EXPECT_EQ(mee.commonCtrHits(), 1);

    // Writes always persist their counters off-chip and devolve the
    // region for subsequent reads.
    mee.onWrite(128, 128, 110);
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Counter), 0u);
    mee.onRead(256, 256, 120);
    EXPECT_EQ(mee.commonCtrHits(), 1)
        << "the devolved region no longer counts as common";

    // Untouched regions stay covered.
    router.txns.clear();
    mee.onRead(1 << 20, 1 << 20, 130);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Counter), 0u);
    EXPECT_EQ(mee.commonCtrHits(), 2);
}

TEST_F(MeeEngineTest, DualGranularityMacUsesChunkMacWhenStreaming)
{
    MeeParams p;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    mee.onRead(0, 0, 100);
    EXPECT_EQ(mee.chunkMacAccesses(), 1);
    EXPECT_EQ(mee.blockMacAccesses(), 0);
}

TEST_F(MeeEngineTest, DetectedRandomChunkSwitchesToBlockMacs)
{
    MeeParams p;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Sparse touches then a long gap: the MAT times out, detects
    // random, and the predictor flips.
    mee.onRead(0, 0, 100);
    mee.onRead(17 * 128, 17 * 128, 101);
    mee.onRead(1 << 20, 1 << 20, 50000); // triggers expiry
    router.txns.clear();

    mee.onRead(5 * 128, 5 * 128, 50001);
    EXPECT_GT(mee.blockMacAccesses(), 0);
}

TEST_F(MeeEngineTest, StreamMispredictedAsRandomChargesRefetch)
{
    MeeParams p;
    p.dualGranularityMac = true;
    p.readOnlyOpt = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    mee.hostCopy(0, 1 << 20); // read-only

    // Flip chunk 0 to "random" via a timed-out sparse phase.
    mee.onRead(0, 0, 100);
    mee.onRead(17 * 128, 17 * 128, 101);
    mee.onRead(2 << 20, 2 << 20, 50000);
    router.txns.clear();

    // Now stream the whole chunk (twice: re-monitoring of random-
    // classified chunks is paced, so the MAT attaches mid-way through
    // the first pass and completes coverage on the second). Detection
    // says streaming while the prediction said random — Table III
    // row 5 (read-only): zero overhead, and the predictor flips back.
    for (int pass = 0; pass < 2; ++pass)
        for (int s = 0; s < 128; ++s)
            mee.onRead(static_cast<LocalAddr>(s) * 32,
                       static_cast<Addr>(s) * 32,
                       50100 + static_cast<Cycle>(pass * 128 + s));
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Extra), 0u);
    EXPECT_TRUE(mee.streamingDetector().predictStreaming(0));
}

TEST_F(MeeEngineTest, NonReadOnlyMispredictionRefetchesChunkMac)
{
    MeeParams p;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Flip chunk 0 to random.
    mee.onRead(0, 0, 100);
    mee.onRead(17 * 128, 17 * 128, 101);
    mee.onRead(2 << 20, 2 << 20, 50000);
    router.txns.clear();

    // Stream it twice (paced re-monitoring attaches mid-pass):
    // random mispredicted in the other direction — Table III row 6:
    // re-fetch the chunk-level MAC.
    for (int pass = 0; pass < 2; ++pass)
        for (int s = 0; s < 128; ++s)
            mee.onRead(static_cast<LocalAddr>(s) * 32,
                       static_cast<Addr>(s) * 32,
                       50100 + static_cast<Cycle>(pass * 128 + s));
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Extra), 0u);
}

TEST_F(MeeEngineTest, WriteStreamMispredictedAsRandomRefetchesData)
{
    MeeParams p;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Writes under the (default) streaming prediction, but sparse:
    // detection=random with the write flag set — Table IV row 2.
    mee.onWrite(0, 0, 100);
    mee.onWrite(17 * 128, 17 * 128, 101);
    mee.onWrite(2 << 20, 2 << 20, 50000); // expiry
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Extra), 0u);
}

TEST_F(MeeEngineTest, DualMacStaleFallback)
{
    MeeParams p;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Stream-write the whole of chunk 0: detection confirms
    // streaming, the chunk MAC is updated and the stored block MACs
    // are stale (marked not dirty).
    for (int b = 0; b < 32; ++b)
        mee.onWrite(static_cast<LocalAddr>(b) * 128, 0,
                    100 + static_cast<Cycle>(b));
    ASSERT_TRUE(mee.streamingDetector().predictStreaming(0));

    // Now chunk 2048 (which shares chunk 0's predictor entry) is
    // detected random via a sparse timed-out phase, flipping the
    // shared bit without any rebuild of chunk 0's block MACs.
    mee.onRead(2048ull * 4096, 0, 300);
    mee.onRead(2048ull * 4096 + 5 * 128, 0, 301);
    mee.onRead(4 << 20, 4 << 20, 60000); // expiry trigger
    ASSERT_FALSE(mee.streamingDetector().predictStreaming(0))
        << "alias flipped chunk 0's prediction";

    router.txns.clear();
    // Reading a block of chunk 0 now uses the block MAC, which is
    // stale: the engine falls back to the chunk MAC (remedy #2).
    mee.onRead(5 * 128, 5 * 128, 60100);
    EXPECT_EQ(mee.dualMacFallbacks(), 1);
}

TEST_F(MeeEngineTest, ShmTracksMacFreshnessOfTheLastBlock)
{
    // SHM keeps one MAC-freshness entry per chunk of the data span:
    // the last 128 B block lies in its last entry.
    MeeParams p = schemes::makeMeeParams(schemes::Scheme::Shm);
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;
    const std::uint64_t chunk_bytes = p.streamDetector.chunkBytes;
    const LocalAddr last = layout.params().dataBytes - 128;
    const std::uint64_t chunk = last / chunk_bytes;
    ASSERT_EQ(chunk + 1, layout.params().dataBytes / chunk_bytes);
    const LocalAddr base = chunk * chunk_bytes;

    // Stream-write the last chunk: its chunk MAC carries the state
    // and its stored block MACs are stale.
    for (LocalAddr a = base; a <= last; a += 128)
        mee.onWrite(a, a, 100 + a / 128 - base / 128);
    ASSERT_TRUE(mee.streamingDetector().predictStreaming(last));

    // A sparse phase on the chunk sharing its predictor entry flips
    // the prediction, so the last block is read by its block MAC.
    const LocalAddr alias = base - p.streamDetector.entries * chunk_bytes;
    mee.onRead(alias, alias, 300);
    mee.onRead(alias + 5 * 128, alias + 5 * 128, 301);
    mee.onRead(0, 0, 60000); // expiry trigger
    ASSERT_FALSE(mee.streamingDetector().predictStreaming(last));

    mee.onRead(last, last, 60100);
    EXPECT_EQ(mee.dualMacFallbacks(), 1) << "stale block MAC";
    // Writing the block by its block MAC makes that MAC fresh.
    mee.onWrite(last, last, 60200);
    mee.onRead(last, last, 60300);
    EXPECT_EQ(mee.dualMacFallbacks(), 1);
}

TEST_F(MeeEngineTest, VictimCachePathUsedWhenActive)
{
    MeeParams p;
    p.victimL2 = true;
    MockVictim victim;
    auto mee_ptr = makeEngine(p, &victim);
    MeeEngine &mee = *mee_ptr;

    // Inactive: plain DRAM fetch, no probes.
    mee.onRead(0, 0, 100);
    EXPECT_TRUE(victim.probes.empty());

    victim.active = true;
    victim.hit = true;
    router.txns.clear();
    // A far-away block (fresh metadata lines) now probes the L2.
    mee.onRead(4 << 20, 4 << 20, 200);
    EXPECT_FALSE(victim.probes.empty());
    EXPECT_EQ(mee.victimHits(), victim.probes.size());
    EXPECT_TRUE(router.txns.empty())
        << "victim hits satisfy the fetch without DRAM";
}

TEST_F(MeeEngineTest, EvictionsGoToVictimWhenActive)
{
    MeeParams p;
    p.victimL2 = true;
    MockVictim victim;
    victim.active = true;
    auto mee_ptr = makeEngine(p, &victim);
    MeeEngine &mee = *mee_ptr;

    // Dirty lots of counter lines to force dirty MDC evictions.
    for (int i = 0; i < 1500; ++i)
        mee.onWrite(static_cast<LocalAddr>(i) * 8192, 0,
                    100 + static_cast<Cycle>(i));
    EXPECT_FALSE(victim.inserts.empty());
    EXPECT_EQ(mee.victimInserts(), victim.inserts.size());
}

TEST_F(MeeEngineTest, PredictionAccuracyAttribution)
{
    MeeParams p;
    p.readOnlyOpt = true;
    p.dualGranularityMac = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    detect::AccessProfile profile(1, 16 << 20);
    // Ground truth: partition-0 region 0 read-only, chunk 0 streaming.
    for (int s = 0; s < 128; ++s)
        profile.recordAccess(0, static_cast<LocalAddr>(s) * 32, false,
                             static_cast<Cycle>(s));
    profile.finalize();
    const detect::TruthProfile truth = profile.truth();
    mee.setProfile(&truth);

    mee.hostCopy(0, 16 * 1024);
    mee.onRead(0, 0, 100);
    const auto &ps = mee.predictionStats();
    EXPECT_EQ(ps.roCorrect.value(), 1);
    EXPECT_EQ(ps.strCorrect.value(), 1);

    // A region never host-copied but truly read-only: MP_Init.
    profile.recordAccess(0, 64 * 1024, false, 20000);
    mee.onRead(64 * 1024, 64 * 1024, 20001);
    EXPECT_EQ(ps.roMpInit.value(), 1);
}

TEST_F(MeeEngineTest, StaticSpaceHintsServeTextureFromSharedCounter)
{
    MeeParams p;
    p.readOnlyOpt = true;
    p.staticSpaceHints = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // No host copy marked this region, but the access is to texture
    // memory: Table I says C+I only.
    mee.onRead(0, 0, 100, MemSpace::Texture);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Counter), 0u);
    EXPECT_EQ(router.bytesOf(mem::TrafficClass::Bmt), 0u);
    EXPECT_EQ(mee.sharedCounterReads(), 1);

    // Global memory without a marking still uses per-block counters.
    mee.onRead(64 * 1024, 64 * 1024, 200, MemSpace::Global);
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Counter), 0u);
}

TEST_F(MeeEngineTest, ProgrammingModelHintMarksWithoutCopy)
{
    MeeParams p;
    p.readOnlyOpt = true;
    p.programmingModelHints = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    mee.hostCopy(0, 16 * 1024, /*declared_read_only=*/true);
    mee.onRead(0, 0, 100);
    EXPECT_EQ(mee.sharedCounterReads(), 1);
}

TEST_F(MeeEngineTest, LazyBmtPropagationOnCounterEviction)
{
    MeeParams p; // PSSM
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // Dirty enough distinct counter lines to force dirty evictions
    // (2 KB counter cache = 16 lines); each eviction must update the
    // evicted leaf's BMT parent entry.
    for (int i = 0; i < 64; ++i)
        mee.onWrite(static_cast<LocalAddr>(i) * 32 * 1024, 0,
                    100 + static_cast<Cycle>(i));
    EXPECT_GT(router.bytesOf(mem::TrafficClass::Bmt), 0u)
        << "counter evictions must reach the BMT";
}

TEST_F(MeeEngineTest, CombinedReadOnlyAndCommonCounters)
{
    // SHM_cctr: read-only regions take the shared counter; untouched
    // not-read-only regions fall back to common counters; written
    // regions use per-block counters.
    MeeParams p;
    p.readOnlyOpt = true;
    p.dualGranularityMac = true;
    p.commonCounters = true;
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    mee.hostCopy(0, 16 * 1024);

    mee.onRead(0, 0, 100); // read-only -> shared counter
    EXPECT_EQ(mee.sharedCounterReads(), 1);
    EXPECT_EQ(mee.commonCtrHits(), 0);

    mee.onRead(64 * 1024, 64 * 1024, 110); // unmarked -> common
    EXPECT_EQ(mee.commonCtrHits(), 1);

    mee.onWrite(64 * 1024, 64 * 1024, 120); // devolves the region
    router.txns.clear();
    mee.onRead(64 * 1024 + 128, 64 * 1024 + 128, 130);
    EXPECT_EQ(mee.commonCtrHits(), 1) << "devolved region not covered";
}

TEST_F(MeeEngineTest, LazyBmtPropagationClimbsOnNodeEviction)
{
    // Evicting dirty BMT level-0 entries must RMW their level-1
    // parents — spread counter writes over enough distinct leaves
    // that level-0 node entries thrash the 2 KB BMT cache.
    MeeParams p; // PSSM
    auto mee_ptr = makeEngine(p);
    MeeEngine &mee = *mee_ptr;

    // 16 MB of data = 2048 counter blocks = 128 level-0 nodes; the
    // BMT cache holds 16 lines.
    for (std::uint64_t i = 0; i < 2048; i += 4)
        mee.onWrite(i * 8192 % (16 << 20), 0,
                    100 + static_cast<Cycle>(i));
    // Drive evictions by more counter traffic.
    for (std::uint64_t i = 1; i < 2048; i += 4)
        mee.onWrite(i * 8192 % (16 << 20), 0,
                    10000 + static_cast<Cycle>(i));

    std::uint64_t bmt_reads = 0, bmt_writes = 0;
    for (const auto &t : router.txns) {
        if (t.cls == mem::TrafficClass::Bmt) {
            (t.type == mem::AccessType::Read ? bmt_reads : bmt_writes)++;
        }
    }
    EXPECT_GT(bmt_reads, 0u) << "parent RMW fetches";
    EXPECT_GT(bmt_writes, 0u) << "dirty node write-backs";
}

TEST_F(MeeEngineTest, PhysicalAddressingSchemesNeverUseTheVictim)
{
    MeeParams p;
    p.localMetadataAddressing = false;
    p.sectoredMetadata = false;
    p.victimL2 = false; // Table VIII never combines them
    MockVictim victim;
    victim.active = true;
    victim.hit = true;
    auto mee_ptr = makeEngine(p, &victim);
    MeeEngine &mee = *mee_ptr;
    mee.onRead(0, 0, 100);
    EXPECT_TRUE(victim.probes.empty());
    EXPECT_TRUE(victim.inserts.empty());
}

TEST_F(MeeEngineTest, MacWidthShrinksMacFootprint)
{
    // 4 B MACs double the blocks per MAC sector, halving cold-miss
    // MAC traffic on a streaming sweep.
    auto run_with = [&](std::uint32_t mac_bytes) {
        meta::LayoutParams lp;
        lp.dataBytes = 16 << 20;
        lp.macBytes = mac_bytes;
        meta::MetadataLayout narrow(lp);
        MeeParams p;
        p.macBytes = mac_bytes;
        MockRouter local_router;
        MeeEngine mee(p, 0, &narrow, &local_router, nullptr, &map,
                      nullptr);
        for (int i = 0; i < 512; ++i)
            mee.onRead(static_cast<LocalAddr>(i) * 128,
                       static_cast<Addr>(i) * 128,
                       100 + static_cast<Cycle>(i));
        return local_router.bytesOf(mem::TrafficClass::Mac);
    };
    std::uint64_t wide = run_with(8);
    std::uint64_t narrow = run_with(4);
    EXPECT_LT(narrow, wide);
    EXPECT_NEAR(static_cast<double>(narrow) / wide, 0.5, 0.2);
}

TEST_F(MeeEngineTest, AliasedPrimingIsInsertionOrderIndependent)
{
    // Chunks 0..63 alias 16 ways onto a 4-entry predictor; even chunks
    // stream, odd ones are probed once (random). Two profiles record
    // them in opposite orders: priming must leave identical entries,
    // each set by the highest chunk mapping to it.
    auto profile = [](bool ascending) {
        auto p = std::make_unique<detect::AccessProfile>(1, 16 << 20);
        Cycle now = 0;
        for (std::uint64_t i = 0; i < 64; ++i) {
            std::uint64_t chunk = ascending ? i : 63 - i;
            std::uint64_t blocks = chunk % 2 == 0 ? 32 : 1;
            for (std::uint64_t b = 0; b < blocks; ++b)
                p->recordAccess(0, chunk * 4096 + b * 128, false, now++);
        }
        p->finalize();
        return p;
    };

    MeeParams params;
    params.streamDetector.entries = 4;
    auto up = makeEngine(params);
    auto down = makeEngine(params);
    up->primeFromProfile(profile(true)->truth());
    down->primeFromProfile(profile(false)->truth());

    const auto &a = up->streamingDetector();
    const auto &b = down->streamingDetector();
    for (std::uint64_t entry = 0; entry < 4; ++entry) {
        SCOPED_TRACE(entry);
        EXPECT_EQ(a.predictStreaming(entry * 4096),
                  b.predictStreaming(entry * 4096));
        EXPECT_EQ(a.entryLastUpdater(entry), b.entryLastUpdater(entry));
        EXPECT_EQ(a.entryLastUpdater(entry), 60 + entry);
        EXPECT_EQ(a.predictStreaming(entry * 4096), entry % 2 == 0);
    }
}
