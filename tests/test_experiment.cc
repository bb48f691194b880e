/**
 * @file
 * Experiment-facade tests.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

gpu::GpuParams
quickParams()
{
    gpu::GpuParams p;
    p.maxCyclesPerKernel = 30000;
    return p;
}

} // namespace

TEST(Experiment, NormalizedIpcIsInUnitRange)
{
    Experiment exp(quickParams());
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    auto r = exp.run(schemes::Scheme::Shm, w);
    EXPECT_GT(r.normalizedIpc, 0.5);
    EXPECT_LE(r.normalizedIpc, 1.001);
    EXPECT_NEAR(r.overhead(), 1.0 - r.normalizedIpc, 1e-12);
    EXPECT_EQ(r.workload, "micro-stream");
    EXPECT_EQ(r.scheme, "SHM");
}

TEST(Experiment, BaselineIsCachedAcrossRuns)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    const auto &b1 = exp.baselineFor(w);
    const auto &b2 = exp.baselineFor(w);
    EXPECT_EQ(&b1, &b2);
}

TEST(Experiment, BaselineCacheDoesNotAliasSpecsSharingAName)
{
    // Two distinct specs under one name: the regenerated-parameter-
    // sweep scenario that used to alias in the name-keyed cache.
    Experiment exp(quickParams());
    auto small = workload::makeStreamingMicro(1 << 20, 1024);
    auto large = workload::makeStreamingMicro(8 << 20, 4096);
    ASSERT_EQ(small.name, large.name);
    ASSERT_NE(workload::contentHash(small),
              workload::contentHash(large));

    const auto &b_small = exp.baselineFor(small);
    const auto &b_large = exp.baselineFor(large);
    EXPECT_NE(&b_small, &b_large);
    EXPECT_NE(b_small.instructions, b_large.instructions);

    // And the cached entries stay stable after both exist.
    EXPECT_EQ(&exp.baselineFor(small), &b_small);
    EXPECT_EQ(&exp.baselineFor(large), &b_large);
    EXPECT_EQ(exp.baselineCache()->size(), 2u);
}

TEST(Experiment, ContentEqualSpecsShareABaselineWhateverTheObject)
{
    Experiment exp(quickParams());
    auto a = workload::makeStreamingMicro(1 << 20, 1024);
    auto b = workload::makeStreamingMicro(1 << 20, 1024);
    EXPECT_EQ(workload::contentHash(a), workload::contentHash(b));
    EXPECT_EQ(&exp.baselineFor(a), &exp.baselineFor(b));
    EXPECT_EQ(exp.baselineCache()->size(), 1u);
}

TEST(Experiment, SharedBaselineCacheSpansExperiments)
{
    auto cache = std::make_shared<RunMemo>(quickParams());
    Experiment exp1(cache);
    Experiment exp2(cache);
    auto w = workload::makeRandomMicro();
    EXPECT_EQ(&exp1.baselineFor(w), &exp2.baselineFor(w));
    EXPECT_EQ(cache->size(), 1u);
}

TEST(WorkloadContentHash, SensitiveToEverySimulationField)
{
    auto base = workload::makeMixedMicro();
    const auto h0 = workload::contentHash(base);

    auto w = base;
    w.seed += 1;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.buffers[0].bytes *= 2;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.kernels[0].streams[0].prob *= 0.5;
    EXPECT_NE(workload::contentHash(w), h0);

    w = base;
    w.kernels[0].computePerMem += 1;
    EXPECT_NE(workload::contentHash(w), h0);

    // Documentation-only fields must NOT change the hash: they never
    // reach the simulator, so they must not split the cache.
    w = base;
    w.bwUtilLo = 0.123;
    w.specialSpaces = "different";
    EXPECT_EQ(workload::contentHash(w), h0);
}

TEST(Experiment, EnergyNormalizationAboveOneForSecureSchemes)
{
    Experiment exp(quickParams());
    auto w = workload::makeStreamingMicro(4 << 20, 2048);
    auto naive = exp.run(schemes::Scheme::Naive, w);
    EXPECT_GT(naive.normalizedEnergyPerInstr, 1.05);
    auto shm = exp.run(schemes::Scheme::Shm, w);
    EXPECT_LT(shm.normalizedEnergyPerInstr,
              naive.normalizedEnergyPerInstr);
}

TEST(Experiment, AccuracyCollectionFillsPredictionStats)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    RunOptions opts;
    opts.collectAccuracy = true;
    auto r = exp.run(schemes::Scheme::Shm, w, opts);
    EXPECT_GT(r.metrics.roCorrect + r.metrics.roMpInit +
                  r.metrics.roMpAliasing,
              0u);
}

TEST(Experiment, UpperBoundRunsProfilePassAutomatically)
{
    Experiment exp(quickParams());
    auto w = workload::makeMixedMicro();
    auto r = exp.run(schemes::Scheme::ShmUpperBound, w);
    EXPECT_GT(r.normalizedIpc, 0.0);
}

// A cell that reads the truth normalizes against the Baseline run that
// carries it: one Baseline simulation, whose metrics are the plain
// Baseline's bits.
TEST(Experiment, TruthReadingCellSimulatesOneBaseline)
{
    auto w = workload::makeMixedMicro();
    const gpu::RunMetrics plain = Experiment(quickParams()).baselineFor(w);
    for (bool accuracy : {true, false}) {
        Experiment exp(quickParams());
        RunOptions opts;
        opts.collectAccuracy = accuracy;
        const auto scheme = accuracy ? schemes::Scheme::Shm
                                     : schemes::Scheme::ShmUpperBound;
        const auto r = exp.run(scheme, w, opts);
        EXPECT_EQ(exp.baselineCache()->size(), 1u) << accuracy;
        EXPECT_EQ(r.baseline.cycles, plain.cycles);
        EXPECT_EQ(r.baseline.ipc, plain.ipc);
        EXPECT_EQ(r.baseline.bytesData, plain.bytesData);
        EXPECT_EQ(r.baseline.energy.dramBytes, plain.energy.dramBytes);
    }
}

TEST(Experiment, MeasureRefusesAMemoOfAnotherGpu)
{
    // A truth collected on another machine would attribute against
    // the wrong partitions.
    RunMemo memo(quickParams());
    gpu::GpuParams other = quickParams();
    other.numSms = 8;
    RunOptions opts;
    opts.collectAccuracy = true;
    opts.soloCache = &memo;
    const auto scenario =
        workload::singleTenantScenario(workload::makeMixedMicro());
    EXPECT_DEATH(measure(other, schemes::Scheme::Shm, scenario, opts),
                 "the run memo simulates another GPU");
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}
