/**
 * @file
 * Differential test of the event-driven kernel engine against the
 * per-cycle reference loop.
 *
 * The event engine (GpuSimulator::run) claims bit-identical behaviour
 * to a per-cycle loop, which lives in tests/reference_kernel_loop.hh
 * as the oracle. This test is the proof: it runs randomized workload
 * specs — every pattern, every scheme, small and cap-hitting cycle
 * budgets, zero and tiny outstanding-load windows — through both
 * engines and requires the full RunMetrics and the whole stats tree to
 * match exactly (only the event engine's own cycles_skipped counter is
 * excluded, since the reference loop never skips).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "reference_kernel_loop.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"
#include "workload/spec.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;
using namespace shmgpu::gpu;

namespace
{

struct EngineResult
{
    RunMetrics metrics;
    std::string stats;
};

EngineResult
runEngine(bool reference_loop, const GpuParams &gp,
          const mee::MeeParams &mp, const workload::ScenarioSpec &scn)
{
    GpuSimulator sim(gp, mp, scn);
    EngineResult r;
    r.metrics = (reference_loop ? test::ReferenceKernelLoop::run(sim)
                                : sim.run())
                    .total;
    r.stats = test::comparableStats(sim);
    return r;
}

/**
 * Require the two engines to agree on everything observable. The
 * stats-tree comparison subsumes most of RunMetrics, but the metrics
 * are also compared field-by-field so a mismatch names the quantity
 * instead of diffing a wall of text.
 */
void
expectIdentical(const GpuParams &gp, const mee::MeeParams &mp,
                const workload::ScenarioSpec &scn, const std::string &what)
{
    EngineResult ev = runEngine(false, gp, mp, scn);
    EngineResult ref = runEngine(true, gp, mp, scn);
    SCOPED_TRACE(what);

    EXPECT_EQ(ev.metrics.cycles, ref.metrics.cycles);
    EXPECT_EQ(ev.metrics.instructions, ref.metrics.instructions);
    EXPECT_EQ(ev.metrics.ipc, ref.metrics.ipc);
    EXPECT_EQ(ev.metrics.bytesData, ref.metrics.bytesData);
    EXPECT_EQ(ev.metrics.bytesCounter, ref.metrics.bytesCounter);
    EXPECT_EQ(ev.metrics.bytesMac, ref.metrics.bytesMac);
    EXPECT_EQ(ev.metrics.bytesBmt, ref.metrics.bytesBmt);
    EXPECT_EQ(ev.metrics.bytesExtra, ref.metrics.bytesExtra);
    EXPECT_EQ(ev.metrics.bandwidthUtilization,
              ref.metrics.bandwidthUtilization);
    EXPECT_EQ(ev.metrics.l2MissRate, ref.metrics.l2MissRate);
    EXPECT_EQ(ev.metrics.sharedCtrReads, ref.metrics.sharedCtrReads);
    EXPECT_EQ(ev.metrics.commonCtrHits, ref.metrics.commonCtrHits);
    EXPECT_EQ(ev.metrics.roTransitions, ref.metrics.roTransitions);
    EXPECT_EQ(ev.metrics.chunkMacAccesses, ref.metrics.chunkMacAccesses);
    EXPECT_EQ(ev.metrics.blockMacAccesses, ref.metrics.blockMacAccesses);
    EXPECT_EQ(ev.metrics.dualMacFallbacks, ref.metrics.dualMacFallbacks);
    EXPECT_EQ(ev.metrics.victimHits, ref.metrics.victimHits);
    EXPECT_EQ(ev.metrics.victimInserts, ref.metrics.victimInserts);
    EXPECT_EQ(ev.stats, ref.stats);
}

void
expectIdentical(const GpuParams &gp, const mee::MeeParams &mp,
                const workload::WorkloadSpec &w, const std::string &what)
{
    expectIdentical(gp, mp, workload::singleTenantScenario(w), what);
}

/**
 * A randomized workload: 1-3 buffers, 1-2 kernels of 1-3 streams
 * covering all four access patterns, compute ratios 0..8 (0 exercises
 * issue-on-fetch), tiny outstanding windows (0 = GPU default, 1 and 2
 * maximize window stalls), and pre-copies with every read-only
 * marking combination.
 */
workload::WorkloadSpec
randomSpec(Rng &rng, unsigned idx)
{
    workload::WorkloadSpec w;
    w.name = "diff_rand_" + std::to_string(idx);
    w.suite = "diff";
    w.seed = rng.next();

    std::uint32_t nbufs = 1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t b = 0; b < nbufs; ++b) {
        workload::BufferSpec buf;
        buf.name = "b" + std::to_string(b);
        buf.bytes = (64 + rng.below(192)) << 10; // 64 KiB .. 256 KiB
        w.buffers.push_back(buf);
    }

    static constexpr workload::Pattern patterns[] = {
        workload::Pattern::Streaming, workload::Pattern::Random,
        workload::Pattern::RandomHot, workload::Pattern::Strided};
    static constexpr std::uint32_t windows[] = {0, 1, 2, 8};

    std::uint32_t nkernels = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (std::uint32_t k = 0; k < nkernels; ++k) {
        workload::KernelSpec ks;
        ks.name = "k" + std::to_string(k);
        ks.iterationsPerSm = 32 + rng.below(224);
        ks.computePerMem = static_cast<std::uint32_t>(rng.below(9));
        ks.maxOutstanding = windows[rng.below(4)];
        std::uint32_t nstreams =
            1 + static_cast<std::uint32_t>(rng.below(3));
        for (std::uint32_t s = 0; s < nstreams; ++s) {
            workload::StreamSpec ss;
            ss.buffer = static_cast<std::uint32_t>(rng.below(nbufs));
            ss.pattern = patterns[rng.below(4)];
            ss.write = rng.below(10) < 3;
            ss.prob = 0.5 + 0.5 * static_cast<double>(rng.below(2));
            ks.streams.push_back(ss);
        }
        if (k == 0) {
            for (std::uint32_t b = 0; b < nbufs; ++b) {
                workload::HostCopySpec hc;
                hc.buffer = b;
                hc.marksReadOnly = rng.below(4) != 0;
                hc.declaredReadOnly = rng.below(4) == 0;
                ks.preCopies.push_back(hc);
            }
        }
        w.kernels.push_back(ks);
    }
    return w;
}

} // namespace

TEST(KernelLoopDiff, CuratedMicrosUnderAllSchemes)
{
    GpuParams gp = testConfig();
    for (const auto &w :
         {workload::makeStreamingMicro(1 << 20, 256),
          workload::makeRandomMicro(1 << 20, 256),
          workload::makeMixedMicro(), workload::makeMultiKernelMicro()}) {
        for (auto s : schemes::allSchemes())
            expectIdentical(gp, schemes::makeMeeParams(s), w,
                            w.name + " / " + schemes::schemeName(s));
    }
}

TEST(KernelLoopDiff, RandomizedSpecs)
{
    GpuParams gp = testConfig();
    Rng rng(0xD1FFu);
    const auto &schemes_all = schemes::allSchemes();
    for (unsigned i = 0; i < 24; ++i) {
        auto w = randomSpec(rng, i);
        auto s = schemes_all[i % schemes_all.size()];
        expectIdentical(gp, schemes::makeMeeParams(s), w,
                        w.name + " / " + schemes::schemeName(s));
    }
}

TEST(KernelLoopDiff, CapHittingKernels)
{
    // A cycle cap small enough that kernels freeze mid-flight: the
    // cap-exit path (abandoned completions, frozen stalls, clamped
    // compute batches) must also match the reference bit for bit.
    GpuParams gp = testConfig();
    Rng rng(0xCA9u);
    for (Cycle cap : {1u, 7u, 100u, 1000u}) {
        gp.maxCyclesPerKernel = cap;
        for (unsigned i = 0; i < 6; ++i) {
            auto w = randomSpec(rng, 100 + i);
            auto s = schemes::allSchemes()[i %
                                           schemes::allSchemes().size()];
            expectIdentical(gp, schemes::makeMeeParams(s), w,
                            "cap=" + std::to_string(cap) + " " + w.name +
                                " / " + schemes::schemeName(s));
        }
    }
}

TEST(KernelLoopDiff, ZeroWindowSpinsToCapIdentically)
{
    // A one-load window makes every read stall until the previous one
    // completes — the heaviest use of the stall/retry path — and both
    // engines must agree on the per-cycle stall count.
    GpuParams gp = testConfig();
    gp.smWindow = 4;
    gp.maxCyclesPerKernel = 2000;
    auto w = workload::makeStreamingMicro(1 << 20, 128);
    for (auto &k : w.kernels)
        k.maxOutstanding = 1;
    expectIdentical(gp, schemes::makeMeeParams(schemes::Scheme::Shm), w,
                    "window=1 streaming");
}

TEST(KernelLoopDiff, TraceTenantsUnderAllSchemes)
{
    // A recorded trace replays through the same engine from a
    // TraceReplay source, with its recorded load windows.
    GpuParams gp = testConfig();
    for (const auto &w : {workload::makeMixedMicro(),
                          workload::makeMultiKernelMicro()}) {
        const auto scn = workload::singleTenantScenario(
            std::make_shared<const workload::Trace>(
                workload::generateTrace(w, gp.numSms)));
        for (auto s : schemes::allSchemes())
            expectIdentical(gp, schemes::makeMeeParams(s), scn,
                            "trace " + w.name + " / " +
                                schemes::schemeName(s));
    }
}
