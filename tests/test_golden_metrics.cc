/**
 * @file
 * Golden-metrics regression tier: the seed-state normalizedIpc /
 * overhead / metadata-overhead numbers for a small scheme x workload
 * grid are pinned in tests/golden/golden_metrics.json. Any simulator
 * change that moves a metric by more than 1e-9 fails here, so paper
 * numbers cannot drift silently through refactors.
 *
 * Regenerate after an *intentional* behaviour change with:
 *
 *   SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics
 *
 * then review the JSON diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/sweep.hh"
#include "golden_document.hh"
#include "gpu/presets.hh"
#include "mem/replacement.hh"

using namespace shmgpu;
using namespace shmgpu::core;

#ifndef SHMGPU_GOLDEN_DIR
#error "build must define SHMGPU_GOLDEN_DIR"
#endif

namespace
{

constexpr double kTolerance = 1e-9;

std::string
goldenPath()
{
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_metrics.json";
}

std::string
goldenPoliciesPath()
{
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_policies.json";
}

std::string
goldenUpperBoundPath()
{
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_upper_bound.json";
}

/** The Fig. 10/11 tallies a collectAccuracy run fills in. */
constexpr const char *kAccuracyMetrics[] = {
    "roCorrect",      "roMpInit",       "roMpAliasing",
    "strCorrect",     "strMpInit",      "strMpAliasing",
    "strMpRuntimeRo", "strMpRuntimeNonRo"};

double
accuracyMetric(const gpu::RunMetrics &m, const std::string &name)
{
    if (name == "roCorrect")
        return m.roCorrect;
    if (name == "roMpInit")
        return m.roMpInit;
    if (name == "roMpAliasing")
        return m.roMpAliasing;
    if (name == "strCorrect")
        return m.strCorrect;
    if (name == "strMpInit")
        return m.strMpInit;
    if (name == "strMpAliasing")
        return m.strMpAliasing;
    if (name == "strMpRuntimeRo")
        return m.strMpRuntimeRo;
    return m.strMpRuntimeNonRo;
}

/**
 * The pinned grid. Changing it invalidates the golden file.
 */
std::vector<ExperimentResult>
runPinnedGrid()
{
    gpu::GpuParams params;
    params.maxCyclesPerKernel = 20000;

    const std::vector<schemes::Scheme> designs = {
        schemes::Scheme::Naive, schemes::Scheme::Pssm,
        schemes::Scheme::Shm};
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();

    SweepRunner runner(params);
    return runner.run(designs, {&stream, &random, &mixed}, {});
}

json::Value
goldenFromResults(const std::vector<ExperimentResult> &results,
                  bool with_policy = false, bool with_accuracy = false)
{
    json::Value doc = json::Value::object();
    doc["comment"] = json::Value(
        "Pinned seed-state metrics; regenerate with "
        "SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_metrics");
    doc["maxCyclesPerKernel"] = json::Value(20000);
    json::Value arr = json::Value::array();
    for (const auto &r : results) {
        json::Value cell = json::Value::object();
        cell["workload"] = json::Value(r.workload);
        cell["scheme"] = json::Value(r.scheme);
        if (with_policy)
            cell["policy"] = json::Value(r.l2Policy);
        cell["normalizedIpc"] = json::Value(r.normalizedIpc);
        cell["overhead"] = json::Value(r.overhead());
        cell["normalizedEnergyPerInstr"] =
            json::Value(r.normalizedEnergyPerInstr);
        cell["metadataOverhead"] =
            json::Value(r.metrics.metadataOverhead());
        cell["baselineIpc"] = json::Value(r.baseline.ipc);
        if (with_accuracy) {
            for (const char *metric : kAccuracyMetrics)
                cell[metric] =
                    json::Value(accuracyMetric(r.metrics, metric));
        }
        arr.append(std::move(cell));
    }
    doc["cells"] = std::move(arr);
    return doc;
}

bool
updateRequested()
{
    const char *env = std::getenv("SHMGPU_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

/** Compare a grid's metrics against a committed golden file. */
void
expectMatchesGoldenFile(const std::vector<ExperimentResult> &results,
                        const std::string &path,
                        bool with_policy = false,
                        bool with_accuracy = false)
{
    json::Value current =
        goldenFromResults(results, with_policy, with_accuracy);
    json::Value golden = json::Value::parseFile(path);
    const auto &want = golden.at("cells");
    const auto &got = current.at("cells");
    ASSERT_EQ(got.size(), want.size())
        << "grid shape changed; regenerate the golden file";

    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &w = want.at(i);
        const auto &g = got.at(i);
        SCOPED_TRACE(w.at("workload").asString() + "/" +
                     w.at("scheme").asString() +
                     (with_policy ? "/" + w.at("policy").asString()
                                  : std::string()));
        ASSERT_EQ(g.at("workload").asString(),
                  w.at("workload").asString());
        ASSERT_EQ(g.at("scheme").asString(), w.at("scheme").asString());
        if (with_policy) {
            ASSERT_EQ(g.at("policy").asString(),
                      w.at("policy").asString());
        }
        for (const char *metric :
             {"normalizedIpc", "overhead", "normalizedEnergyPerInstr",
              "metadataOverhead", "baselineIpc"}) {
            EXPECT_NEAR(g.at(metric).asNumber(),
                        w.at(metric).asNumber(), kTolerance)
                << metric << " drifted beyond 1e-9 — if intentional, "
                << "regenerate with SHMGPU_UPDATE_GOLDEN=1";
        }
        if (!with_accuracy)
            continue;
        for (const char *metric : kAccuracyMetrics) {
            EXPECT_NEAR(g.at(metric).asNumber(),
                        w.at(metric).asNumber(), kTolerance)
                << metric << " drifted beyond 1e-9 — if intentional, "
                << "regenerate with SHMGPU_UPDATE_GOLDEN=1";
        }
    }
}

void
expectMatchesGolden(const std::vector<ExperimentResult> &results)
{
    expectMatchesGoldenFile(results, goldenPath());
}

/**
 * The pinned policy grid: the scan-resistant policies (SIEVE and
 * S3FIFO on both the L2 banks and the MDCs) over a 2x2 scheme x
 * workload corner. Pinning these keeps the *non-default* policies
 * from drifting silently — golden_metrics.json only guards LRU.
 */
std::vector<ExperimentResult>
runPolicyPinnedGrid()
{
    gpu::GpuParams params;
    params.maxCyclesPerKernel = 20000;

    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();
    return runPolicyGrid(
        params, {mem::PolicyKind::Sieve, mem::PolicyKind::S3Fifo},
        {schemes::Scheme::Naive, schemes::Scheme::Shm},
        {&stream, &mixed}, {});
}

/**
 * The pinned profiled grid: SHM and SHM_upper_bound with the Fig.
 * 10/11 accuracy tallies on four Table VII workloads. These are the
 * only cells that run the profiling pass and its unlimited-MAT
 * oracle, which the other golden files never reach.
 */
std::vector<ExperimentResult>
runUpperBoundPinnedGrid()
{
    gpu::GpuParams params;
    params.maxCyclesPerKernel = 20000;

    std::vector<const workload::WorkloadSpec *> specs;
    for (const char *name : {"atax", "bfs", "kmeans", "lbm"})
        specs.push_back(&workload::findWorkload(name));

    SweepOptions options;
    options.run.collectAccuracy = true;
    SweepRunner runner(params);
    return runner.run({schemes::Scheme::Shm, schemes::Scheme::ShmUpperBound},
                      specs, options);
}

} // namespace

TEST(GoldenMetrics, SeedGridMatchesGoldenFile)
{
    auto results = runPinnedGrid();

    if (updateRequested()) {
        json::Value current = goldenFromResults(results);
        std::ofstream os(goldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        current.write(os, 2);
        os << "\n";
        GTEST_SKIP() << "golden file regenerated at " << goldenPath();
    }

    expectMatchesGolden(results);
}

TEST(GoldenMetrics, PolicyGridMatchesGoldenFile)
{
    auto results = runPolicyPinnedGrid();

    if (updateRequested()) {
        json::Value current = goldenFromResults(results, true);
        std::ofstream os(goldenPoliciesPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPoliciesPath();
        current.write(os, 2);
        os << "\n";
        GTEST_SKIP() << "golden file regenerated at "
                     << goldenPoliciesPath();
    }

    expectMatchesGoldenFile(results, goldenPoliciesPath(), true);
}

TEST(GoldenMetrics, UpperBoundAndAccuracyMatchesGoldenFile)
{
    auto results = runUpperBoundPinnedGrid();

    if (updateRequested()) {
        json::Value current = goldenFromResults(results, false, true);
        std::ofstream os(goldenUpperBoundPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenUpperBoundPath();
        current.write(os, 2);
        os << "\n";
        GTEST_SKIP() << "golden file regenerated at "
                     << goldenUpperBoundPath();
    }

    expectMatchesGoldenFile(results, goldenUpperBoundPath(), false, true);
}

// The whole --out document of a small --accuracy grid: every member
// of every record, in order, not just the headline metrics above.
TEST(GoldenMetrics, AccuracySweepDocumentMatchesGoldenFile)
{
    gpu::GpuParams params = gpu::testConfig();
    params.maxCyclesPerKernel = 10000;
    SweepOptions options;
    options.run.collectAccuracy = true;
    SweepRunner runner(params);
    const auto results =
        runner.run({schemes::Scheme::Naive, schemes::Scheme::Shm},
                   {&workload::findWorkload("atax"),
                    &workload::findWorkload("bfs")},
                   options);
    golden::expectMatchesGoldenDocument(
        sweepToJson(results),
        std::string(SHMGPU_GOLDEN_DIR) + "/golden_sweep_document.json");
}

TEST(GoldenMetrics, GoldenFileIsSelfConsistent)
{
    // Guard the golden file itself: parseable, right shape, sane
    // ranges — catches hand-edits that would silently weaken the tier.
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &cells = golden.at("cells");
    ASSERT_EQ(cells.size(), 9u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells.at(i);
        double n = c.at("normalizedIpc").asNumber();
        EXPECT_GT(n, 0.0);
        EXPECT_LE(n, 1.001);
        EXPECT_NEAR(c.at("overhead").asNumber(), 1.0 - n, 1e-12);
    }
}
