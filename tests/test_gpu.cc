/**
 * @file
 * GPU-simulator integration tests: end-to-end runs of micro-workloads
 * under every scheme, detector integration, victim cache, profiling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"
#include "stats_lookup.hh"
#include "workload/benchmarks.hh"

using namespace shmgpu;
using namespace shmgpu::gpu;

namespace
{

GpuParams
quickParams()
{
    GpuParams p;
    p.maxCyclesPerKernel = 40000;
    return p;
}

RunMetrics
runScheme(schemes::Scheme s, const workload::WorkloadSpec &w,
          GpuParams gp = quickParams())
{
    GpuSimulator sim(gp, schemes::makeMeeParams(s),
                     workload::singleTenantScenario(w));
    return sim.run().total;
}

} // namespace

TEST(GpuSimulator, BaselineMakesForwardProgress)
{
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    RunMetrics m = runScheme(schemes::Scheme::Baseline, w);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.instructions, 100000u);
    EXPECT_GT(m.ipc, 1.0);
    EXPECT_EQ(m.metadataBytes(), 0u) << "baseline moves no metadata";
    EXPECT_GT(m.bytesData, 0u);
}

TEST(GpuSimulator, DeterministicRuns)
{
    auto w = workload::makeMixedMicro();
    RunMetrics a = runScheme(schemes::Scheme::Shm, w);
    RunMetrics b = runScheme(schemes::Scheme::Shm, w);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.bytesData, b.bytesData);
    EXPECT_EQ(a.metadataBytes(), b.metadataBytes());
}

TEST(GpuSimulator, SecureSchemesMoveMetadata)
{
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    for (auto s : {schemes::Scheme::Naive, schemes::Scheme::Pssm,
                   schemes::Scheme::Shm}) {
        RunMetrics m = runScheme(s, w);
        EXPECT_GT(m.metadataBytes(), 0u) << schemes::schemeName(s);
    }
}

TEST(GpuSimulator, SchemeOrderingOnStreamingWorkload)
{
    // The paper's headline ordering: Naive < Common_ctr < PSSM < SHM
    // in IPC (all below baseline).
    auto w = workload::makeStreamingMicro(8 << 20, 4096);
    double base = runScheme(schemes::Scheme::Baseline, w).ipc;
    double naive = runScheme(schemes::Scheme::Naive, w).ipc;
    double cctr = runScheme(schemes::Scheme::CommonCtr, w).ipc;
    double pssm = runScheme(schemes::Scheme::Pssm, w).ipc;
    double shm = runScheme(schemes::Scheme::Shm, w).ipc;

    EXPECT_LT(naive, cctr);
    EXPECT_LT(cctr, pssm);
    EXPECT_LT(pssm, shm);
    EXPECT_LE(shm, base * 1.001);
    EXPECT_GT(shm, base * 0.9) << "SHM should be within 10% of baseline";
}

TEST(GpuSimulator, ShmBandwidthOverheadIsSmallOnStreams)
{
    auto w = workload::makeStreamingMicro(8 << 20, 4096);
    RunMetrics m = runScheme(schemes::Scheme::Shm, w);
    EXPECT_LT(m.metadataOverhead(), 0.10);
    RunMetrics naive = runScheme(schemes::Scheme::Naive, w);
    EXPECT_GT(naive.metadataOverhead(), 0.5);
}

TEST(GpuSimulator, SharedCounterServesReadOnlyStreams)
{
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    RunMetrics m = runScheme(schemes::Scheme::Shm, w);
    EXPECT_GT(m.sharedCtrReads, 0u);
    EXPECT_GT(m.chunkMacAccesses, m.blockMacAccesses);
}

TEST(GpuSimulator, RandomWorkloadDevolvesToBlockMacs)
{
    auto w = workload::makeRandomMicro(4 << 20, 2048);
    RunMetrics m = runScheme(schemes::Scheme::Shm, w);
    EXPECT_GT(m.blockMacAccesses, 0u);
}

TEST(GpuSimulator, MultiKernelHostCopiesRearmReadOnly)
{
    auto w = workload::makeMultiKernelMicro();
    RunMetrics m = runScheme(schemes::Scheme::Shm, w);
    // Kernel 1 reads 'in' (read-only), writes 'mid' (transitions);
    // kernel 2 reads 'mid'; kernel 3 re-reads refreshed 'in'.
    EXPECT_GT(m.sharedCtrReads, 0u);
    EXPECT_GT(m.roTransitions, 0u);
}

TEST(GpuSimulator, ProfileCollectionSeesTraffic)
{
    auto w = workload::makeMixedMicro();
    detect::AccessProfile profile(
        12, quickParams().protectedBytesPerPartition);
    GpuSimulator sim(quickParams(),
                     schemes::makeMeeParams(schemes::Scheme::Baseline),
                     workload::singleTenantScenario(w));
    sim.collectProfile(&profile);
    sim.run();

    int chunks = 0;
    for (PartitionId p = 0; p < 12; ++p)
        profile.forEachChunk(p, [&](std::uint64_t, bool) { ++chunks; });
    EXPECT_GT(chunks, 0);
}

TEST(GpuSimulator, ProfileCollectionIsObserverOnly)
{
    // The truth pass is a Baseline run with a profile attached: the
    // profile may watch the miss stream but never change it. Every
    // Table VII workload dumps the same stats tree with and without.
    GpuParams gp;
    gp.maxCyclesPerKernel = 4000;
    auto dump = [&](const workload::WorkloadSpec &w, bool collect) {
        detect::AccessProfile profile(gp.numPartitions,
                                      gp.protectedBytesPerPartition);
        GpuSimulator sim(gp,
                         schemes::makeMeeParams(schemes::Scheme::Baseline),
                         workload::singleTenantScenario(w));
        if (collect)
            sim.collectProfile(&profile);
        sim.run();
        std::ostringstream os;
        sim.statsRoot().dump(os);
        if (collect) {
            EXPECT_GT(profile.accessRatios().totalAccesses, 0u);
        }
        return os.str();
    };
    ASSERT_EQ(workload::allWorkloads().size(), 16u);
    for (const auto &w : workload::allWorkloads()) {
        SCOPED_TRACE(w.name);
        EXPECT_EQ(dump(w, true), dump(w, false));
    }
}

TEST(GpuSimulator, UpperBoundPrimingWorks)
{
    auto w = workload::makeRandomMicro(4 << 20, 2048);
    detect::AccessProfile profile(
        12, quickParams().protectedBytesPerPartition);
    {
        GpuSimulator pass1(
            quickParams(),
            schemes::makeMeeParams(schemes::Scheme::Baseline),
            workload::singleTenantScenario(w));
        pass1.collectProfile(&profile);
        pass1.run();
    }
    GpuSimulator sim(quickParams(),
                     schemes::makeMeeParams(
                         schemes::Scheme::ShmUpperBound),
                     workload::singleTenantScenario(w));
    const detect::TruthProfile truth = profile.truth();
    sim.primeFromProfile(truth);
    sim.attributeAgainst(&truth);
    RunMetrics m = sim.run().total;
    // Primed predictors on a random workload: block MACs dominate.
    EXPECT_GT(m.blockMacAccesses, m.chunkMacAccesses);
    // And the accuracy tallies are populated.
    const std::uint64_t total = m.strCorrect + m.strMpInit +
                                m.strMpAliasing + m.strMpRuntimeRo +
                                m.strMpRuntimeNonRo;
    EXPECT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(m.strCorrect) /
                  static_cast<double>(total),
              0.9);
}

TEST(GpuSimulator, VictimCacheEngagesOnThrashingL2)
{
    // The streaming micro has ~100% L2 read miss rate, which arms the
    // victim-cache monitor.
    auto w = workload::makeStreamingMicro(8 << 20, 4096);
    RunMetrics m = runScheme(schemes::Scheme::ShmVL2, w);
    EXPECT_GT(m.victimInserts + m.victimHits, 0u);
}

TEST(GpuSimulator, BandwidthUtilizationIsSane)
{
    auto w = workload::makeStreamingMicro(8 << 20, 4096);
    RunMetrics m = runScheme(schemes::Scheme::Baseline, w);
    EXPECT_GT(m.bandwidthUtilization, 0.5) << "stream should saturate";
    EXPECT_LE(m.bandwidthUtilization, 1.05);
}

TEST(GpuSimulator, EnergyActivityPopulated)
{
    auto w = workload::makeMixedMicro();
    RunMetrics m = runScheme(schemes::Scheme::Shm, w);
    EXPECT_EQ(m.energy.cycles, m.cycles);
    EXPECT_EQ(m.energy.instructions, m.instructions);
    EXPECT_GT(m.energy.dramBytes, 0u);
    EXPECT_GT(m.energy.mdcAccesses, 0u);
}

// Time-sliced tenants take turns on the same SM units, so the energy
// model must count every tenant's instructions, not only those of the
// tenant holding the units when the run ends.
TEST(GpuSimulator, EnergyCountsEveryTimeSlicedTenant)
{
    workload::ScenarioSpec scn;
    scn.name = "mix";
    scn.policy = workload::SharePolicy::TimeSliced;
    scn.quantumCycles = 2000;
    scn.tenants.push_back(
        {"stream", workload::makeStreamingMicro(), 0, nullptr});
    scn.tenants.push_back(
        {"random", workload::makeRandomMicro(), 3000, nullptr});
    GpuSimulator sim(testConfig(),
                     schemes::makeMeeParams(schemes::Scheme::Shm), scn);
    ScenarioMetrics sm = sim.run();
    ASSERT_EQ(sm.tenants.size(), 2u);
    EXPECT_GT(sm.tenants[0].instructions, 0u);
    EXPECT_GT(sm.tenants[1].instructions, 0u);
    EXPECT_EQ(sm.total.energy.instructions, sm.total.instructions);
}

TEST(GpuSimulator, OversizedWorkloadIsFatal)
{
    workload::WorkloadSpec w = workload::makeStreamingMicro(1 << 20, 16);
    w.buffers[0].bytes = 1ull << 40;
    GpuParams gp = quickParams();
    EXPECT_DEATH(
        { GpuSimulator sim(gp, schemes::makeMeeParams(
                                   schemes::Scheme::Shm),
                           workload::singleTenantScenario(w)); },
        "exceeds the protected space");
}

TEST(GpuSimulator, StatsTreeDumps)
{
    auto w = workload::makeMixedMicro();
    GpuSimulator sim(quickParams(),
                     schemes::makeMeeParams(schemes::Scheme::Shm),
                     workload::singleTenantScenario(w));
    sim.run();
    std::ostringstream os;
    sim.statsRoot().dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("sim.cycles"), std::string::npos);
    EXPECT_NE(out.find("p0.mee.reads"), std::string::npos);
    EXPECT_NE(out.find("dram_p0.bytes"), std::string::npos);
}

TEST(Interconnect, LatencyAndSerialization)
{
    InterconnectParams p;
    p.latency = 20;
    p.bytesPerCycle = 32;
    Interconnect icnt(p, 2);

    // One 32 B reply: 1 serialization cycle + 20 latency.
    EXPECT_EQ(icnt.reply(0, 32, 100), 100u + 1 + 20);
    // Directions and partitions are independent links.
    EXPECT_EQ(icnt.reply(1, 32, 100), 100u + 1 + 20);
    EXPECT_EQ(icnt.request(0, 16, 100), 100u + 1 + 20);
    // Back-to-back replies on one link serialize.
    Cycle first = icnt.reply(0, 128, 200);
    Cycle second = icnt.reply(0, 128, 200);
    EXPECT_EQ(first, 200u + 4 + 20);
    EXPECT_EQ(second, first + 4);
}

TEST(Interconnect, SerializationMatchesFormulaForEveryByteSize)
{
    // The per-interconnect serialization table (and the formula above
    // it) against the division it replaces, at the default 32 B/cycle
    // and at non-integral rates, including one below a byte per cycle.
    for (double rate : {32.0, 18.6, 0.7}) {
        InterconnectParams p;
        p.latency = 20;
        p.bytesPerCycle = rate;
        Interconnect icnt(p, 1);
        for (std::uint32_t bytes = 1; bytes <= 512; ++bytes) {
            Cycle want = std::max<Cycle>(
                static_cast<Cycle>(
                    std::ceil(static_cast<double>(bytes) / rate)),
                1);
            ASSERT_EQ(icnt.serializeCycles(bytes), want)
                << bytes << " B at " << rate << " B/cycle";
        }
        // A traversal charges exactly that serialization to the link.
        Cycle free_at = 0;
        for (std::uint32_t bytes : {1u, 16u, 144u, 256u, 257u, 512u}) {
            Cycle arrive = icnt.reply(0, bytes, 0);
            free_at += icnt.serializeCycles(bytes);
            EXPECT_EQ(arrive, free_at + p.latency) << bytes << " B";
        }
    }
}

TEST(Interconnect, ReplyContentionThrottlesHotPartition)
{
    InterconnectParams p;
    p.latency = 20;
    p.bytesPerCycle = 4; // artificially narrow link
    Interconnect icnt(p, 2);

    Cycle last = 0;
    for (int i = 0; i < 16; ++i)
        last = icnt.reply(0, 32, 0);
    // 16 x 8 serialization cycles queue up on the narrow link.
    EXPECT_GE(last, 16u * 8);
    // The other partition's link is idle.
    EXPECT_EQ(icnt.reply(1, 32, 0), 0u + 8 + 20);
}

TEST(GpuPresets, NamedConfigsAreConsistent)
{
    GpuParams turing = presetByName("turing");
    EXPECT_EQ(turing.numSms, 30u);
    EXPECT_EQ(turing.numPartitions, 12u);

    GpuParams big = presetByName("big");
    EXPECT_GT(big.numSms, turing.numSms);
    EXPECT_GT(big.l2BankBytes, turing.l2BankBytes);

    GpuParams tiny = presetByName("test");
    EXPECT_LT(tiny.numSms, turing.numSms);
    EXPECT_DEATH(presetByName("hopper"),
                 "unknown GPU preset 'hopper' \\(expected one of: "
                 "turing, big, test\\)");
    EXPECT_EQ(presetNames(),
              (std::vector<std::string>{"turing", "big", "test"}));
    EXPECT_TRUE(presetByName("test") == testConfig());
    EXPECT_TRUE(presetByName("big") == bigConfig());
}

TEST(GpuPresets, TestConfigRunsQuickly)
{
    auto w = workload::makeMixedMicro();
    GpuSimulator sim(presetByName("test"),
                     schemes::makeMeeParams(schemes::Scheme::Shm),
                     workload::singleTenantScenario(w));
    RunMetrics m = sim.run().total;
    EXPECT_GT(m.instructions, 0u);
    EXPECT_GT(m.metadataBytes(), 0u);
}

TEST(Interconnect, StatsRegistration)
{
    stats::StatGroup root(nullptr, "root");
    Interconnect icnt(InterconnectParams{}, 2);
    icnt.regStats(&root);
    icnt.request(0, 16, 0);
    icnt.reply(1, 32, 0);
    bool found = false;
    EXPECT_EQ(stats::lookupStat(root, "icnt.requests", &found), 1u);
    EXPECT_TRUE(found);
    EXPECT_EQ(stats::lookupStat(root, "icnt.reply_bytes", &found), 32u);
}

TEST(GpuSimulator, HostCopyPastProtectedSpaceIsClamped)
{
    // A trace can carry a host copy whose base lies beyond the
    // per-partition protected space. The clamped local window must
    // come out empty — before the host-copy path clamped `lo` as well
    // as `hi`, the u64 length underflowed to ~2^64 bytes.
    GpuParams gp = testConfig();
    auto tr = std::make_shared<workload::Trace>();
    tr->numSms = gp.numSms;
    workload::TraceKernel k;
    k.copies.push_back({/*base=*/1ull << 30, /*bytes=*/4096,
                        /*declaredReadOnly=*/true});
    for (SmId sm = 0; sm < gp.numSms; ++sm) {
        workload::TraceRecord r;
        r.sm = sm;
        r.op.addr = 64ull * sm;
        r.op.computeInstrs = 1;
        k.records.push_back(r);
    }
    tr->kernels.push_back(k);

    GpuSimulator sim(gp, schemes::makeMeeParams(schemes::Scheme::Shm),
                     workload::singleTenantScenario(tr));
    RunMetrics m = sim.run().total;
    EXPECT_GT(m.cycles, 0u);
    EXPECT_EQ(m.instructions, 2ull * gp.numSms); // compute + read each
}
