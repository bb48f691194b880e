/**
 * @file
 * Golden pins for the adaptive scheme (Scheme::ShmAdaptive): a 3
 * workload x 2 epoch grid's metrics — including the controller
 * tallies (demotions, promotions, re-encrypted bytes) — are pinned in
 * tests/golden/golden_adaptive.json.
 * The controller's decision sequence is part of the simulated
 * machine, so any change to the classification rules or transition
 * costs shows up here rather than drifting silently.
 *
 * Regenerate after an *intentional* behaviour change with:
 *
 *   SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_adaptive
 *
 * then review the JSON diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/sweep.hh"

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
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_adaptive.json";
}

/** The pinned grid: the three micros at a fast and a slow
 *  reclassification epoch. Changing it invalidates the golden file. */
std::vector<ExperimentResult>
runPinnedGrid()
{
    gpu::GpuParams params;
    params.maxCyclesPerKernel = 20000;

    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();

    SweepRunner runner(params);
    std::vector<ExperimentResult> all;
    for (Cycle epoch : {Cycle{2000}, Cycle{10000}}) {
        SweepOptions opts;
        opts.run.adaptEpoch = epoch;
        auto results =
            runner.run({schemes::Scheme::ShmAdaptive},
                       {&stream, &random, &mixed}, opts);
        all.insert(all.end(), results.begin(), results.end());
    }
    return all;
}

json::Value
goldenFromResults(const std::vector<ExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    doc["comment"] = json::Value(
        "Pinned SHM_adaptive metrics; regenerate with "
        "SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_adaptive");
    doc["maxCyclesPerKernel"] = json::Value(20000);
    json::Value arr = json::Value::array();
    for (const auto &r : results) {
        json::Value cell = json::Value::object();
        cell["workload"] = json::Value(r.workload);
        cell["scheme"] = json::Value(r.scheme);
        cell["adaptEpoch"] = json::Value(r.adaptEpoch);
        cell["normalizedIpc"] = json::Value(r.normalizedIpc);
        cell["overhead"] = json::Value(r.overhead());
        cell["metadataOverhead"] =
            json::Value(r.metrics.metadataOverhead());
        cell["adaptDemotions"] = json::Value(r.metrics.adaptDemotions);
        cell["adaptPromotions"] = json::Value(r.metrics.adaptPromotions);
        cell["adaptReencBytes"] = json::Value(r.metrics.adaptReencBytes);
        arr.append(std::move(cell));
    }
    doc["cells"] = std::move(arr);
    return doc;
}

bool
updateRequested()
{
    const char *env = std::getenv("SHMGPU_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

void
expectMatchesGolden(const std::vector<ExperimentResult> &results)
{
    json::Value current = goldenFromResults(results);
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &want = golden.at("cells");
    const auto &got = current.at("cells");
    ASSERT_EQ(got.size(), want.size())
        << "grid shape changed; regenerate the golden file";

    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &w = want.at(i);
        const auto &g = got.at(i);
        SCOPED_TRACE(w.at("workload").asString() + "/epoch=" +
                     std::to_string(static_cast<std::uint64_t>(
                         w.at("adaptEpoch").asNumber())));
        ASSERT_EQ(g.at("workload").asString(),
                  w.at("workload").asString());
        ASSERT_EQ(g.at("scheme").asString(), w.at("scheme").asString());
        ASSERT_EQ(g.at("adaptEpoch").asNumber(),
                  w.at("adaptEpoch").asNumber());
        for (const char *metric :
             {"normalizedIpc", "overhead", "metadataOverhead",
              "adaptDemotions", "adaptPromotions", "adaptReencBytes"}) {
            EXPECT_NEAR(g.at(metric).asNumber(),
                        w.at(metric).asNumber(), kTolerance)
                << metric << " drifted beyond 1e-9 — if intentional, "
                << "regenerate with SHMGPU_UPDATE_GOLDEN=1";
        }
    }
}

} // namespace

TEST(GoldenAdaptive, PinnedGridMatchesGoldenFile)
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

TEST(GoldenAdaptive, GoldenFileIsSelfConsistent)
{
    // Parseable, right shape, sane ranges, and the controller really
    // fired somewhere in the grid (a golden file pinning an inert
    // controller would guard nothing).
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &cells = golden.at("cells");
    ASSERT_EQ(cells.size(), 6u);
    double total_transitions = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells.at(i);
        double n = c.at("normalizedIpc").asNumber();
        EXPECT_GT(n, 0.0);
        EXPECT_LE(n, 1.001);
        EXPECT_NEAR(c.at("overhead").asNumber(), 1.0 - n, 1e-12);
        EXPECT_GE(c.at("adaptDemotions").asNumber(), 0.0);
        total_transitions += c.at("adaptDemotions").asNumber() +
                             c.at("adaptPromotions").asNumber();
    }
    EXPECT_GT(total_transitions, 0.0)
        << "no cell exercised the adaptive controller";
}
