/**
 * @file
 * SweepRunner tests: the determinism guarantee (identical metrics at
 * any job count), exception propagation out of worker threads, and
 * cooperative cancellation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/sweep.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

gpu::GpuParams
quickParams()
{
    gpu::GpuParams p;
    p.maxCyclesPerKernel = 20000;
    return p;
}

/** A 3-scheme x 3-workload grid over the micro workloads. */
struct Grid
{
    std::vector<schemes::Scheme> designs = {
        schemes::Scheme::Naive, schemes::Scheme::Pssm,
        schemes::Scheme::Shm};
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {
        &stream, &random, &mixed};
};

std::vector<ExperimentResult>
runWithJobs(unsigned jobs)
{
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = jobs;
    return runner.run(grid.designs, grid.workloads, opts);
}

void
expectMetricsIdentical(const gpu::RunMetrics &a, const gpu::RunMetrics &b)
{
    // Exact comparisons on purpose: the claim is bit-for-bit
    // determinism, not approximate agreement.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.bytesData, b.bytesData);
    EXPECT_EQ(a.bytesCounter, b.bytesCounter);
    EXPECT_EQ(a.bytesMac, b.bytesMac);
    EXPECT_EQ(a.bytesBmt, b.bytesBmt);
    EXPECT_EQ(a.bytesExtra, b.bytesExtra);
    EXPECT_EQ(a.bandwidthUtilization, b.bandwidthUtilization);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.sharedCtrReads, b.sharedCtrReads);
    EXPECT_EQ(a.commonCtrHits, b.commonCtrHits);
    EXPECT_EQ(a.chunkMacAccesses, b.chunkMacAccesses);
    EXPECT_EQ(a.blockMacAccesses, b.blockMacAccesses);
    EXPECT_EQ(a.energy.dramBytes, b.energy.dramBytes);
    EXPECT_EQ(a.energy.aesBlocks, b.energy.aesBlocks);
    EXPECT_EQ(a.energy.hashes, b.energy.hashes);
}

} // namespace

TEST(SweepRunner, ResultsAreInWorkloadMajorGridOrder)
{
    auto results = runWithJobs(1);
    ASSERT_EQ(results.size(), 9u);
    EXPECT_EQ(results[0].workload, "micro-stream");
    EXPECT_EQ(results[0].scheme, "Naive");
    EXPECT_EQ(results[1].scheme, "PSSM");
    EXPECT_EQ(results[2].scheme, "SHM");
    EXPECT_EQ(results[3].workload, "micro-random");
    EXPECT_EQ(results[8].workload, "micro-mixed");
    EXPECT_EQ(results[8].scheme, "SHM");
}

TEST(SweepRunner, JobCountDoesNotChangeAnyMetric)
{
    auto serial = runWithJobs(1);
    auto parallel = runWithJobs(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].workload + "/" + serial[i].scheme);
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].scheme, parallel[i].scheme);
        EXPECT_EQ(serial[i].normalizedIpc, parallel[i].normalizedIpc);
        EXPECT_EQ(serial[i].normalizedEnergyPerInstr,
                  parallel[i].normalizedEnergyPerInstr);
        expectMetricsIdentical(serial[i].metrics, parallel[i].metrics);
        expectMetricsIdentical(serial[i].baseline, parallel[i].baseline);
    }
}

TEST(SweepRunner, JsonSinkIsBitIdenticalAcrossJobCounts)
{
    std::ostringstream serial, parallel;
    writeSweepJson(serial, runWithJobs(1));
    writeSweepJson(parallel, runWithJobs(8));
    EXPECT_EQ(serial.str(), parallel.str());
}

TEST(SweepRunner, SharedBaselineCacheSimulatesEachSpecOnce)
{
    Grid grid;
    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 4;
    runner.run(grid.designs, grid.workloads, opts);
    EXPECT_EQ(runner.baselineCache()->size(), 3u);
}

// A grid that reads the Baseline truth (--accuracy, or a primed
// SHM_upper_bound cell beside plain ones) simulates one Baseline per
// workload: the memo holds nothing else, measure() runs no Baseline
// of its own, and every cell normalizes against the plain Baseline's
// bits.
TEST(SweepRunner, TruthReadingGridsSimulateOneBaselinePerWorkload)
{
    using schemes::Scheme;
    struct Case
    {
        const char *name;
        std::vector<Scheme> designs;
        bool accuracy;
    };
    const std::vector<Case> cases = {
        {"accuracy", {Scheme::Naive, Scheme::Pssm, Scheme::Shm}, true},
        {"upper bound", {Scheme::Shm, Scheme::ShmUpperBound}, false}};
    Grid grid;
    const SweepRunner plain(quickParams());
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        SweepRunner runner(quickParams());
        SweepOptions opts;
        opts.jobs = 4;
        opts.run.collectAccuracy = c.accuracy;
        const auto results = runner.run(c.designs, grid.workloads, opts);
        EXPECT_EQ(runner.baselineCache()->size(), grid.workloads.size());
        ASSERT_EQ(results.size(), c.designs.size() * grid.workloads.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            expectMetricsIdentical(
                results[i].baseline,
                plain.baselineCache()->metricsFor(
                    *grid.workloads[i / c.designs.size()]));
    }
}

TEST(SweepRunner, MatchesDirectExperimentRuns)
{
    Grid grid;
    auto results = runWithJobs(8);
    Experiment exp(quickParams());
    auto direct = exp.run(schemes::Scheme::Pssm, grid.random);
    // Cell (micro-random, PSSM) is index 1*3 + 1.
    EXPECT_EQ(results[4].normalizedIpc, direct.normalizedIpc);
    expectMetricsIdentical(results[4].metrics, direct.metrics);
}

namespace
{

/** Runner whose cells throw for one scheme — the exception seam. */
class ThrowingRunner : public SweepRunner
{
  public:
    using SweepRunner::SweepRunner;
    schemes::Scheme poison = schemes::Scheme::Pssm;
    mutable std::atomic<int> cellsRun{0};

  protected:
    ExperimentResult
    runCell(const Experiment &experiment, const SweepCell &cell,
            const RunOptions &options) const override
    {
        ++cellsRun;
        if (cell.scheme == poison)
            throw std::runtime_error("injected cell failure");
        return SweepRunner::runCell(experiment, cell, options);
    }
};

} // namespace

TEST(SweepRunner, PropagatesCellExceptionsFromWorkers)
{
    Grid grid;
    ThrowingRunner runner(quickParams());
    SweepOptions opts;
    opts.jobs = 4;
    EXPECT_THROW(
        {
            try {
                runner.run(grid.designs, grid.workloads, opts);
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "injected cell failure");
                throw;
            }
        },
        std::runtime_error);
}

TEST(SweepRunner, FirstFailureAbandonsUnstartedCells)
{
    Grid grid;
    ThrowingRunner runner(quickParams());
    runner.poison = schemes::Scheme::Naive; // cell 0 fails immediately
    SweepOptions opts;
    opts.jobs = 1; // serial: deterministic count
    EXPECT_THROW(runner.run(grid.designs, grid.workloads, opts),
                 std::runtime_error);
    EXPECT_EQ(runner.cellsRun.load(), 1);
}

TEST(SweepRunner, MidSweepCancellationAbandonsRemainingCells)
{
    Grid grid;
    ThrowingRunner runner(quickParams());
    runner.poison = schemes::Scheme::ShmUpperBound; // not in the grid
    SweepOptions opts;
    opts.jobs = 1;
    opts.cancelAfter = 1;
    EXPECT_THROW(runner.run(grid.designs, grid.workloads, opts),
                 SweepCancelled);
    EXPECT_EQ(runner.cellsRun.load(), 1);
}

TEST(SweepRunner, EmptyGridReturnsNoResults)
{
    SweepRunner runner(quickParams());
    EXPECT_TRUE(runner.run({}, {}, {}).empty());
    EXPECT_TRUE(runner.runCells({}, {}).empty());
}

TEST(SweepRunner, RunCellsSupportsRaggedGrids)
{
    Grid grid;
    SweepRunner runner(quickParams());
    std::vector<SweepCell> cells = {
        {schemes::Scheme::Shm, &grid.stream},
        {schemes::Scheme::Naive, &grid.mixed},
    };
    auto results = runner.runCells(cells, {});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "micro-stream");
    EXPECT_EQ(results[0].scheme, "SHM");
    EXPECT_EQ(results[1].workload, "micro-mixed");
    EXPECT_EQ(results[1].scheme, "Naive");
}

namespace
{

/** Runner that logs the order in which cells start. */
class OrderLoggingRunner : public SweepRunner
{
  public:
    using SweepRunner::SweepRunner;
    mutable std::mutex mutex;
    mutable std::vector<std::string> started;

  protected:
    ExperimentResult
    runCell(const Experiment &experiment, const SweepCell &cell,
            const RunOptions &options) const override
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            started.push_back(cell.spec->name + "/" +
                              schemes::schemeName(cell.scheme));
        }
        return SweepRunner::runCell(experiment, cell, options);
    }
};

} // namespace

TEST(SweepRunner, LongestFirstOrderKeepsGridResults)
{
    Grid grid;
    const gpu::GpuParams gp = quickParams();

    // The serial claim order: descending estimate, ties (the schemes
    // of one workload) in grid order.
    std::vector<std::pair<double, std::string>> expected;
    for (const auto *w : grid.workloads)
        for (auto s : grid.designs)
            expected.emplace_back(
                estimateCellCost(*w, gp.maxCyclesPerKernel),
                w->name + "/" + schemes::schemeName(s));
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    ASSERT_NE(expected.front().first, expected.back().first)
        << "the micro workloads should differ in estimated cost";

    OrderLoggingRunner serial_runner(gp);
    SweepOptions opts;
    opts.jobs = 1;
    auto serial = serial_runner.run(grid.designs, grid.workloads, opts);
    ASSERT_EQ(serial_runner.started.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(serial_runner.started[i], expected[i].second) << i;

    // Results stay in grid order, identical at any job count.
    OrderLoggingRunner parallel_runner(gp);
    opts.jobs = 4;
    auto parallel = parallel_runner.run(grid.designs, grid.workloads, opts);
    ASSERT_EQ(serial.size(), 9u);
    EXPECT_EQ(serial[0].workload, "micro-stream");
    EXPECT_EQ(serial[0].scheme, "Naive");
    EXPECT_EQ(serial[8].workload, "micro-mixed");
    EXPECT_EQ(serial[8].scheme, "SHM");
    std::ostringstream a, b;
    writeSweepJson(a, serial);
    writeSweepJson(b, parallel);
    EXPECT_EQ(a.str(), b.str());
}
