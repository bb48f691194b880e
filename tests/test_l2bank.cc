/**
 * @file
 * L2 bank tests: data path, victim-cache path, set-sampling monitor.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "gpu/l2bank.hh"

using namespace shmgpu;
using namespace shmgpu::gpu;

namespace
{

GpuParams
params()
{
    GpuParams p;
    p.l2BankBytes = 8 * 1024; // small bank: 64 lines
    p.victimSampleRatio = 4;
    p.victimSampleWarmup = 8;
    return p;
}

} // namespace

TEST(L2Bank, ReadMissThenHit)
{
    L2Bank bank(params(), 0, 0);
    mem::CacheAccessResult r = bank.accessData(0x100, false);
    EXPECT_EQ(r.outcome, mem::CacheOutcome::Miss);
    EXPECT_NE(r.fetchMask, 0u);
    r = bank.accessData(0x100, false);
    EXPECT_EQ(r.outcome, mem::CacheOutcome::Hit);
    EXPECT_EQ(bank.accesses(), 2u);
    EXPECT_EQ(bank.misses(), 1u);
}

TEST(L2Bank, WriteValidates)
{
    L2Bank bank(params(), 0, 0);
    mem::CacheAccessResult r = bank.accessData(0x200, true);
    EXPECT_EQ(r.outcome, mem::CacheOutcome::WriteNoFetch);
    EXPECT_EQ(bank.accessData(0x200, false).outcome,
              mem::CacheOutcome::Hit);
}

TEST(L2Bank, DirtyEvictionSurfacesWriteback)
{
    GpuParams p = params();
    p.l2BankBytes = 2048; // 16 lines, 16-way => 1 set
    p.l2Assoc = 16;
    L2Bank bank(p, 0, 0);

    bank.accessData(0, true); // dirty line
    bool saw_wb = false;
    for (int i = 1; i <= 20; ++i) {
        auto r = bank.accessData(static_cast<LocalAddr>(i) * 128, false);
        saw_wb |= (r.writeback.valid && r.writeback.blockAddr == 0);
    }
    EXPECT_TRUE(saw_wb);
}

TEST(L2Bank, VictimInsertAndProbe)
{
    L2Bank bank(params(), 0, 0);
    Addr meta = 1 << 20;
    EXPECT_FALSE(bank.probeVictim(meta));
    bank.insertVictim(meta, 0xF, 0x3);
    EXPECT_TRUE(bank.probeVictim(meta));
}

TEST(L2Bank, SamplingTracksMissRate)
{
    L2Bank bank(params(), 0, 0);
    // Streaming misses over sampled lines (sample ratio 4, 1 bank).
    for (int i = 0; i < 256; ++i)
        bank.accessData(static_cast<LocalAddr>(i) * 128, false);
    EXPECT_TRUE(bank.sampleWarm());
    EXPECT_GT(bank.sampledMissRate(), 0.95);

    bank.resetSampling();
    EXPECT_FALSE(bank.sampleWarm());
    EXPECT_EQ(bank.sampledMissRate(), 0.0);
}

TEST(L2Bank, SamplingSeesHits)
{
    L2Bank bank(params(), 0, 0);
    // Touch a small set twice: second pass hits.
    for (int pass = 0; pass < 8; ++pass)
        for (int i = 0; i < 16; ++i)
            bank.accessData(static_cast<LocalAddr>(i) * 128, false);
    EXPECT_TRUE(bank.sampleWarm());
    EXPECT_LT(bank.sampledMissRate(), 0.5);
}

TEST(L2Bank, SampledSetMatchesDivisionForm)
{
    // The sampled-set mask against the division it replaces: a line is
    // sampled when local / blockBytes / banks is a multiple of the
    // ratio. sampleAccCum counts sampled accesses.
    Rng rng(5);
    for (std::uint32_t banks : {1u, 2u, 4u}) {
        for (std::uint32_t ratio : {1u, 2u, 4u, 32u, 64u}) {
            GpuParams p = params();
            p.l2BanksPerPartition = banks;
            p.victimSampleRatio = ratio;
            L2Bank bank(p, 0, 0);
            for (int i = 0; i < 4000; ++i) {
                LocalAddr local = i % 2 ? rng.next() & ~LocalAddr{31}
                                        : rng.below(1 << 20) * 32;
                bool want = (local / 128 / banks) % ratio == 0;
                std::uint64_t before = bank.sampleAccCum;
                bank.accessData(local, rng.chance(0.3));
                ASSERT_EQ(bank.sampleAccCum - before, want ? 1u : 0u)
                    << "banks " << banks << " ratio " << ratio
                    << " local " << local;
            }
        }
    }
}

TEST(L2Bank, NonPowerOfTwoSampleRatioPanics)
{
    GpuParams p = params();
    p.victimSampleRatio = 3;
    EXPECT_DEATH(L2Bank(p, 0, 0), "power of two");
}
