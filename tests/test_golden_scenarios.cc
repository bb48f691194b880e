/**
 * @file
 * Golden-scenario regression tier: the pinned multi-tenant numbers —
 * per-tenant IPC, slowdown, detector accuracy, MDC hit rate and the
 * context-switch counts — for a small share-policy x quantum x scheme
 * grid, stored in tests/golden/golden_scenarios.json. The grid
 * includes the degenerate single-tenant scenario — the form every
 * single-workload run takes — alongside the sharing numbers.
 *
 * Regenerate after an *intentional* behaviour change with:
 *
 *   SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_scenarios
 *
 * then review the JSON diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "core/scenario.hh"
#include "golden_document.hh"
#include "gpu/presets.hh"
#include "workload/benchmarks.hh"

using namespace shmgpu;
using namespace shmgpu::core;

#ifndef SHMGPU_GOLDEN_DIR
#error "build must define SHMGPU_GOLDEN_DIR"
#endif
#ifndef SHMGPU_EXAMPLES_DIR
#error "build must define SHMGPU_EXAMPLES_DIR"
#endif

namespace
{

constexpr double kTolerance = 1e-9;

std::string
goldenPath()
{
    return std::string(SHMGPU_GOLDEN_DIR) + "/golden_scenarios.json";
}

/** The pinned grid. Changing it invalidates the golden file. */
std::vector<ScenarioExperimentResult>
runPinnedGrid()
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;

    auto mix = [](workload::SharePolicy policy, Cycle quantum,
                  bool flush) {
        workload::ScenarioSpec scn;
        scn.name = "mix";
        scn.policy = policy;
        scn.quantumCycles = quantum;
        scn.flushMdcOnSwitch = flush;
        scn.tenants.push_back(
            {"stream", workload::makeStreamingMicro(), 0, nullptr});
        scn.tenants.push_back(
            {"random", workload::makeRandomMicro(), 3000, nullptr});
        return scn;
    };

    std::vector<workload::ScenarioSpec> scenarios;
    scenarios.push_back(
        mix(workload::SharePolicy::TimeSliced, 2000, false));
    scenarios.push_back(
        mix(workload::SharePolicy::TimeSliced, 2000, true));
    scenarios.push_back(
        mix(workload::SharePolicy::TimeSliced, 20000, false));
    scenarios.push_back(
        mix(workload::SharePolicy::Partitioned, 2000, false));
    scenarios.push_back(workload::singleTenantScenario(
        workload::makeMixedMicro()));

    std::vector<ScenarioCell> cells;
    for (const auto &scn : scenarios)
        for (auto scheme :
             {schemes::Scheme::Naive, schemes::Scheme::Shm}) {
            // Partitioned scenarios require local metadata
            // addressing, which the Naive layout lacks.
            if (scn.policy == workload::SharePolicy::Partitioned &&
                scheme == schemes::Scheme::Naive)
                continue;
            cells.push_back({scheme, &scn});
        }
    return SweepRunner(gp).run(cells);
}

json::Value
goldenFromResults(const std::vector<ScenarioExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    doc["comment"] = json::Value(
        "Pinned multi-tenant scenario metrics; regenerate with "
        "SHMGPU_UPDATE_GOLDEN=1 ./build/tests/test_golden_scenarios");
    json::Value arr = json::Value::array();
    for (const auto &r : results) {
        json::Value cell = json::Value::object();
        cell["scenario"] = json::Value(r.scenario);
        cell["scheme"] = json::Value(r.scheme);
        cell["sharePolicy"] = json::Value(r.sharePolicy);
        cell["quantumCycles"] =
            json::Value(static_cast<double>(r.quantumCycles));
        cell["flushMdcOnSwitch"] = json::Value(r.flushMdcOnSwitch);
        cell["contextSwitches"] =
            json::Value(static_cast<double>(r.metrics.contextSwitches));
        cell["mdcFlushWritebacks"] = json::Value(
            static_cast<double>(r.metrics.mdcFlushWritebacks));
        cell["meanSlowdown"] = json::Value(r.meanSlowdown);
        json::Value tenants = json::Value::array();
        for (const auto &t : r.tenants) {
            json::Value tj = json::Value::object();
            tj["name"] = json::Value(t.shared.name);
            tj["ipc"] = json::Value(t.shared.ipc);
            tj["slowdown"] = json::Value(t.slowdown);
            tj["mdcHitRate"] = json::Value(t.shared.mdcHitRate);
            tj["roAccuracy"] = json::Value(t.shared.roAccuracy);
            tj["strAccuracy"] = json::Value(t.shared.strAccuracy);
            tenants.append(std::move(tj));
        }
        cell["tenants"] = std::move(tenants);
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

void
expectMatchesGolden(const std::vector<ScenarioExperimentResult> &results)
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
        SCOPED_TRACE(w.at("scenario").asString() + "/" +
                     w.at("scheme").asString() + "/" +
                     w.at("sharePolicy").asString() + "/q" +
                     std::to_string(static_cast<long long>(
                         w.at("quantumCycles").asNumber())));
        ASSERT_EQ(g.at("scheme").asString(), w.at("scheme").asString());
        ASSERT_EQ(g.at("sharePolicy").asString(),
                  w.at("sharePolicy").asString());
        for (const char *metric :
             {"contextSwitches", "mdcFlushWritebacks", "meanSlowdown"}) {
            EXPECT_NEAR(g.at(metric).asNumber(),
                        w.at(metric).asNumber(), kTolerance)
                << metric << " drifted beyond 1e-9 — if intentional, "
                << "regenerate with SHMGPU_UPDATE_GOLDEN=1";
        }
        const auto &wt = w.at("tenants");
        const auto &gt = g.at("tenants");
        ASSERT_EQ(gt.size(), wt.size());
        for (std::size_t j = 0; j < wt.size(); ++j) {
            SCOPED_TRACE("tenant " +
                         wt.at(j).at("name").asString());
            for (const char *metric :
                 {"ipc", "slowdown", "mdcHitRate", "roAccuracy",
                  "strAccuracy"}) {
                EXPECT_NEAR(gt.at(j).at(metric).asNumber(),
                            wt.at(j).at(metric).asNumber(), kTolerance)
                    << metric << " drifted beyond 1e-9 — if "
                    << "intentional, regenerate with "
                    << "SHMGPU_UPDATE_GOLDEN=1";
            }
        }
    }
}

} // namespace

TEST(GoldenScenarios, PinnedGridMatchesGoldenFile)
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

// The whole --out document of the committed mix2 example with solo
// references: every member of every cell and tenant, in order.
TEST(GoldenScenarios, Mix2SweepDocumentMatchesGoldenFile)
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.maxCyclesPerKernel = 10000;
    const workload::ScenarioSpec scn = workload::parseScenarioFile(
        std::string(SHMGPU_EXAMPLES_DIR) + "/scenarios/mix2.scn");
    RunMemo solos(gp);
    RunOptions opts;
    opts.soloCache = &solos;
    std::vector<ScenarioExperimentResult> results;
    for (auto scheme :
         {schemes::Scheme::Shm, schemes::Scheme::ShmUpperBound})
        results.push_back(runScenarioExperiment(gp, scheme, scn, opts));
    golden::expectMatchesGoldenDocument(
        scenarioSweepToJson(results),
        std::string(SHMGPU_GOLDEN_DIR) + "/golden_scenario_document.json");
}

TEST(GoldenScenarios, GoldenFileIsSelfConsistent)
{
    // Guard the golden file itself: parseable, right shape, sane
    // ranges — catches hand-edits that would silently weaken the tier.
    json::Value golden = json::Value::parseFile(goldenPath());
    const auto &cells = golden.at("cells");
    ASSERT_EQ(cells.size(), 9u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells.at(i);
        EXPECT_GT(c.at("meanSlowdown").asNumber(), 0.0);
        const auto &tenants = c.at("tenants");
        ASSERT_GE(tenants.size(), 1u);
        for (std::size_t j = 0; j < tenants.size(); ++j) {
            EXPECT_GT(tenants.at(j).at("ipc").asNumber(), 0.0);
            EXPECT_GE(tenants.at(j).at("slowdown").asNumber(), 0.9);
        }
    }
}
