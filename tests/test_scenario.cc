/**
 * @file
 * The multi-tenant scenario engine and the core scenario-experiment
 * layer: determinism across repeats, time-slice/partition semantics,
 * trace tenants, accuracy attribution, and the JSON / result-cache
 * round trips.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/result_cache.hh"
#include "core/scenario.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"
#include "stats_lookup.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

/** Enough SMs/partitions that partitioned splits are non-trivial. */
gpu::GpuParams
scnConfig()
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;
    return gp;
}

/** The standard two-tenant mix: a streamer plus a late random tenant. */
workload::ScenarioSpec
twoTenantMix(workload::SharePolicy policy, Cycle quantum,
             bool flush_mdc = false)
{
    workload::ScenarioSpec scn;
    scn.name = "mix";
    scn.policy = policy;
    scn.quantumCycles = quantum;
    scn.flushMdcOnSwitch = flush_mdc;
    scn.tenants.push_back({"stream", workload::makeStreamingMicro(), 0, nullptr});
    scn.tenants.push_back({"random", workload::makeRandomMicro(), 3000, nullptr});
    return scn;
}

struct ScenarioRun
{
    gpu::ScenarioMetrics metrics;
    std::string stats;
};

ScenarioRun
runScenario(const gpu::GpuParams &gp, schemes::Scheme scheme,
            const workload::ScenarioSpec &scn)
{
    gpu::GpuSimulator sim(gp, schemes::makeMeeParams(scheme), scn);
    ScenarioRun r;
    r.metrics = sim.run();
    std::ostringstream os;
    sim.statsRoot().dump(os);
    r.stats = os.str();
    return r;
}

/** Self-cleaning per-test cache directory under $TMPDIR. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const char *tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("shmgpu-scn-" + std::string(tag) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::string
dumpJson(const json::Value &v)
{
    std::ostringstream os;
    v.write(os, 2);
    return os.str();
}

} // namespace

TEST(Scenario, TraceTenantMustRunAlone)
{
    // Trace addresses are absolute: a second tenant would overlap them.
    auto scn = workload::singleTenantScenario(
        std::make_shared<const workload::Trace>(workload::generateTrace(
            workload::makeMixedMicro(), scnConfig().numSms)));
    scn.tenants.push_back({"other", workload::makeRandomMicro(), 0, nullptr});
    EXPECT_DEATH(workload::validateScenario(scn),
                 "trace tenant 'trace' must be the only tenant");
}

// A scenario file's whole-file checks fail located and fatal (not as
// a panic), like its per-line ones.
TEST(Scenario, ParseErrorsAreLocated)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return workload::parseScenario(in, "<scn>");
    };
    EXPECT_DEATH(parse("scenario s\n"), "<scn>:1: scenario 's' has no tenants");
    EXPECT_DEATH(parse("scenario s\nquantum 0\ntenant atax\n"),
                 "<scn>:3: scenario 's': quantum must be positive");
    EXPECT_DEATH(parse("scenario s\ntenant atax\ntenant atax\n"),
                 "<scn>:3: scenario 's': duplicate tenant name 'atax'");
    EXPECT_DEATH(parse("scenario s\ntenant nosuch\n"),
                 "<scn>:2: unknown workload 'nosuch'");
    EXPECT_DEATH(parse("scenario s\nshare sideways\n"),
                 "<scn>:2: unknown share policy 'sideways'");
    EXPECT_DEATH(parse("scenario s\ntenant @missing.wl\n"),
                 "<scn>:2: cannot open workload file 'missing.wl'");
}

TEST(Scenario, ContentHashCoversTheTrace)
{
    const auto w = workload::makeMixedMicro();
    auto trace = std::make_shared<workload::Trace>(
        workload::generateTrace(w, scnConfig().numSms));
    const auto h0 =
        workload::contentHash(workload::singleTenantScenario(trace));
    trace->kernels[0].window += 1;
    EXPECT_NE(workload::contentHash(workload::singleTenantScenario(trace)),
              h0);
    trace->kernels[0].window -= 1;
    trace->kernels[0].records[0].op.addr += 32;
    EXPECT_NE(workload::contentHash(workload::singleTenantScenario(trace)),
              h0);
}

TEST(Scenario, RepeatedRunIsDeterministic)
{
    const gpu::GpuParams gp = scnConfig();
    const auto scn =
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000, true);
    ScenarioRun a = runScenario(gp, schemes::Scheme::Shm, scn);
    ScenarioRun b = runScenario(gp, schemes::Scheme::Shm, scn);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Scenario, ArrivalDelaysFirstDispatch)
{
    const auto r = runScenario(
        scnConfig(), schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 5000));
    ASSERT_EQ(r.metrics.tenants.size(), 2u);
    EXPECT_EQ(r.metrics.tenants[0].startCycle, 0u);
    EXPECT_GE(r.metrics.tenants[1].startCycle, 3000u);
    EXPECT_EQ(r.metrics.tenants[1].arrivalCycle, 3000u);
}

TEST(Scenario, SmallerQuantumMeansMoreSwitches)
{
    const gpu::GpuParams gp = scnConfig();
    const auto coarse = runScenario(
        gp, schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 20000));
    const auto fine = runScenario(
        gp, schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 1000));
    EXPECT_GT(fine.metrics.contextSwitches,
              coarse.metrics.contextSwitches);
    // Each tenant is re-dispatched after every preemption.
    EXPECT_GT(fine.metrics.tenants[0].dispatches, 1u);
}

TEST(Scenario, PartitionedModeNeverSwitches)
{
    const auto r = runScenario(
        scnConfig(), schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::Partitioned, 1000));
    EXPECT_EQ(r.metrics.contextSwitches, 0u);
    EXPECT_EQ(r.metrics.mdcFlushWritebacks, 0u);
    ASSERT_EQ(r.metrics.tenants.size(), 2u);
    for (const auto &t : r.metrics.tenants)
        EXPECT_GT(t.instructions, 0u);
}

TEST(Scenario, MdcFlushEmitsWritebacks)
{
    const gpu::GpuParams gp = scnConfig();
    const auto kept = runScenario(
        gp, schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 1000, false));
    const auto flushed = runScenario(
        gp, schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 1000, true));
    EXPECT_EQ(kept.metrics.mdcFlushWritebacks, 0u);
    EXPECT_GT(flushed.metrics.mdcFlushWritebacks, 0u);
}

// runScenarioExperiment's two-pass attribution must populate the
// per-tenant detector tallies and the solo-reference deltas — the
// headline quantum-degradation experiment depends on both.
TEST(ScenarioExperiment, AttributionAndSoloReferences)
{
    const auto scn =
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000);
    ScenarioExperimentResult r = runScenarioExperiment(
        scnConfig(), schemes::Scheme::Shm, scn);

    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_GT(r.meanSlowdown, 0.5);
    for (const auto &t : r.tenants) {
        EXPECT_GT(t.shared.roCorrect + t.shared.roMispredicts, 0u)
            << t.shared.name;
        EXPECT_GT(t.shared.strCorrect + t.shared.strMispredicts, 0u)
            << t.shared.name;
        EXPECT_GT(t.soloIpc, 0.0);
        EXPECT_GT(t.soloMdcHitRate, 0.0);
        EXPECT_GT(t.soloRoAccuracy, 0.0);
        // A tenant can never run faster shared than solo by much.
        EXPECT_GT(t.slowdown, 0.9) << t.shared.name;
    }
}

namespace
{

/** What a run's tenant shares must add up to and the run's metrics
 *  do not carry: its partitions' MEE stats, summed. */
struct MeeStatTotals
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t mdcHits = 0; //!< full hits plus write-validates
};

/** Measure @p scn under @p scheme with accuracy attribution, and sum
 *  the finished run's MEE stats into @p totals. */
gpu::ScenarioMetrics
measureWithStats(const gpu::GpuParams &gp, schemes::Scheme scheme,
                 const workload::ScenarioSpec &scn, MeeStatTotals &totals)
{
    RunOptions opts;
    opts.collectAccuracy = true;
    return measure(gp, scheme, scn, opts, [&](gpu::GpuSimulator &sim) {
        auto stat = [&](const std::string &path) {
            bool found = false;
            const std::uint64_t v =
                stats::lookupStat(sim.statsRoot(), path, &found);
            EXPECT_TRUE(found) << path;
            return v;
        };
        for (std::uint32_t p = 0; p < gp.numPartitions; ++p) {
            const std::string mee = "p" + std::to_string(p) + ".mee.";
            totals.reads += stat(mee + "reads");
            totals.writes += stat(mee + "writes");
            for (const char *mdc :
                 {"counter_cache.", "mac_cache.", "bmt_cache."})
                totals.mdcHits += stat(mee + mdc + "hits") +
                                  stat(mee + mdc + "write_no_fetch");
        }
    });
}

/** Every MEE count charged to the tenants adds up to the run's. */
void
expectTenantSharesSumToTotals(const gpu::ScenarioMetrics &m,
                              const MeeStatTotals &stats)
{
    gpu::TenantRunMetrics sum;
    for (const auto &t : m.tenants) {
        sum.memReads += t.memReads;
        sum.memWrites += t.memWrites;
        sum.mdcAccesses += t.mdcAccesses;
        sum.mdcHits += t.mdcHits;
        sum.roCorrect += t.roCorrect;
        sum.roMispredicts += t.roMispredicts;
        sum.strCorrect += t.strCorrect;
        sum.strMispredicts += t.strMispredicts;
    }
    const gpu::RunMetrics &total = m.total;
    EXPECT_GT(sum.memReads, 0u);
    EXPECT_GT(sum.roCorrect + sum.roMispredicts, 0u);
    EXPECT_GT(sum.strCorrect + sum.strMispredicts, 0u);
    EXPECT_EQ(sum.memReads, stats.reads);
    EXPECT_EQ(sum.memWrites, stats.writes);
    EXPECT_EQ(sum.mdcAccesses, total.energy.mdcAccesses);
    EXPECT_EQ(sum.mdcHits, stats.mdcHits);
    EXPECT_EQ(sum.roCorrect, total.roCorrect);
    EXPECT_EQ(sum.roMispredicts, total.roMpInit + total.roMpAliasing);
    EXPECT_EQ(sum.strCorrect, total.strCorrect);
    EXPECT_EQ(sum.strMispredicts,
              total.strMpInit + total.strMpAliasing +
                  total.strMpRuntimeRo + total.strMpRuntimeNonRo);
}

} // namespace

// Per-tenant MEE counts partition the run's: whatever a tenant is
// charged at a switch or over its static slice, nothing is counted
// twice or dropped, with several tenants and switches or with one.
TEST(ScenarioAttribution, TenantSharesSumToRunTotals)
{
    gpu::GpuParams gp = scnConfig();
    gp.maxCyclesPerKernel = 10000;
    // mix2 grown to three tenants, as `--tenants 3` does.
    workload::ScenarioSpec scn = workload::parseScenarioFile(
        std::string(SHMGPU_EXAMPLES_DIR) + "/scenarios/mix2.scn");
    scn.tenants.push_back(scn.tenants[0]);
    scn.tenants.back().name += "#2";
    scn.quantumCycles = 2000;

    MeeStatTotals sliced;
    const gpu::ScenarioMetrics ts =
        measureWithStats(gp, schemes::Scheme::Shm, scn, sliced);
    ASSERT_EQ(ts.tenants.size(), 3u);
    EXPECT_GE(ts.contextSwitches, 3u);
    expectTenantSharesSumToTotals(ts, sliced);

    scn.policy = workload::SharePolicy::Partitioned;
    MeeStatTotals split;
    const gpu::ScenarioMetrics pt =
        measureWithStats(gp, schemes::Scheme::Shm, scn, split);
    ASSERT_EQ(pt.tenants.size(), 3u);
    EXPECT_EQ(pt.contextSwitches, 0u);
    expectTenantSharesSumToTotals(pt, split);

    // One tenant: its share is the whole run.
    MeeStatTotals solo;
    const gpu::ScenarioMetrics one = measureWithStats(
        gp, schemes::Scheme::Shm,
        workload::singleTenantScenario(workload::findWorkload("bfs")),
        solo);
    ASSERT_EQ(one.tenants.size(), 1u);
    expectTenantSharesSumToTotals(one, solo);
}

// Regression for the ROADMAP item-1 leftover: the switch-time
// detector flush used to also drop SHM_upper_bound's profile-primed
// predictions, degrading the oracle to learned-from-scratch after the
// first quantum. Every context switch now re-primes the incoming
// tenant's partitions, so the oracle's streaming accuracy must stay
// perfect through a many-switch mix — not just in the first quantum.
TEST(ScenarioExperiment, UpperBoundStaysPrimedAcrossSwitches)
{
    for (bool flush : {false, true}) {
        const auto scn = twoTenantMix(workload::SharePolicy::TimeSliced,
                                      2000, flush);
        ScenarioExperimentResult r = runScenarioExperiment(
            scnConfig(), schemes::Scheme::ShmUpperBound, scn);
        ASSERT_GT(r.metrics.contextSwitches, 5u)
            << "mix too short to exercise re-priming";
        ASSERT_EQ(r.tenants.size(), 2u);
        for (const auto &t : r.tenants) {
            EXPECT_GE(t.shared.strAccuracy, 0.999)
                << t.shared.name << " lost its primed predictions "
                << "(flush=" << flush << ")";
            // Sharing must not cost the oracle accuracy vs its solo
            // run: both start (and stay) perfectly primed.
            EXPECT_NEAR(t.strAccuracyDelta, 0.0, 1e-3)
                << t.shared.name;
        }
    }
}

TEST(ScenarioExperiment, WithoutSoloLeavesDeltasZero)
{
    RunOptions opts;
    opts.withSolo = false;
    ScenarioExperimentResult r = runScenarioExperiment(
        scnConfig(), schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000), opts);
    EXPECT_EQ(r.meanSlowdown, 0.0);
    for (const auto &t : r.tenants) {
        EXPECT_EQ(t.soloIpc, 0.0);
        EXPECT_EQ(t.slowdown, 0.0);
    }
}

TEST(ScenarioExperiment, JsonRoundTripIsExact)
{
    ScenarioExperimentResult r = runScenarioExperiment(
        scnConfig(), schemes::Scheme::Shm,
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000));
    json::Value j = scenarioResultToJson(r);
    ScenarioExperimentResult back = scenarioResultFromJson(j);
    EXPECT_EQ(dumpJson(scenarioResultToJson(back)), dumpJson(j));
}

// Cell persistence: a second identical grid must load every cell from
// the cache and produce byte-identical results; a different quantum
// must key a different cell.
TEST(ScenarioExperiment, CellsRoundTripThroughResultCache)
{
    TempDir dir("cells");
    ResultCache cache(dir.str());

    const gpu::GpuParams gp = scnConfig();
    const auto scn =
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000);
    std::vector<ScenarioCell> cells = {
        {schemes::Scheme::Shm, &scn},
        {schemes::Scheme::Naive, &scn},
    };

    const SweepRunner runner(gp);
    SweepOptions opts;
    opts.cache = &cache;
    SweepTally cold;
    opts.tally = &cold;
    auto first = runner.run(cells, opts);
    EXPECT_EQ(cold.simulated, 2u);
    EXPECT_EQ(cold.cached, 0u);

    SweepTally warm;
    opts.tally = &warm;
    auto second = runner.run(cells, opts);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, 2u);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(dumpJson(scenarioResultToJson(second[i])),
                  dumpJson(scenarioResultToJson(first[i])))
            << "cell " << i;

    // The quantum is part of the content hash, so a different quantum
    // must miss.
    auto other = twoTenantMix(workload::SharePolicy::TimeSliced, 4000);
    std::vector<ScenarioCell> other_cells = {
        {schemes::Scheme::Shm, &other}};
    SweepTally miss;
    opts.tally = &miss;
    runner.run(other_cells, opts);
    EXPECT_EQ(miss.simulated, 1u);
}

// --jobs must never change result bytes (slot-indexed results, solo
// references memoized with call_once).
TEST(ScenarioExperiment, JobCountDoesNotChangeResults)
{
    const gpu::GpuParams gp = scnConfig();
    const auto ts =
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000);
    const auto part =
        twoTenantMix(workload::SharePolicy::Partitioned, 2000);
    std::vector<ScenarioCell> cells = {
        {schemes::Scheme::Shm, &ts},
        {schemes::Scheme::Naive, &ts},
        {schemes::Scheme::Shm, &part},
    };

    SweepOptions serial;
    serial.jobs = 1;
    auto want = SweepRunner(gp).run(cells, serial);

    SweepOptions wide;
    wide.jobs = 4;
    auto got = SweepRunner(gp).run(cells, wide);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(dumpJson(scenarioResultToJson(got[i])),
                  dumpJson(scenarioResultToJson(want[i])))
            << "cell " << i;
}

// One solo cache shared across a quantum grid: the quantum never
// changes a tenant's solo run, so a two-tenant mix needs exactly two
// solo simulations however many cells and workers read them.
TEST(ScenarioExperiment, SharedSoloCacheSimulatesEachSoloOnce)
{
    const gpu::GpuParams gp = scnConfig();
    std::vector<workload::ScenarioSpec> grid;
    for (Cycle q : {2000, 4000, 8000})
        grid.push_back(twoTenantMix(workload::SharePolicy::TimeSliced, q));
    std::vector<ScenarioCell> cells;
    for (const auto &scn : grid)
        cells.push_back({schemes::Scheme::Shm, &scn});

    // Two solo runs, the Baseline truth of each solo workload, and
    // one Baseline truth per scenario.
    const std::size_t memoized = 2 + 2 + grid.size();
    for (unsigned jobs : {1u, 4u}) {
        RunMemo solos(gp);
        SweepOptions opts;
        opts.jobs = jobs;
        opts.run.soloCache = &solos;
        auto results = SweepRunner(gp).run(cells, opts);
        EXPECT_EQ(solos.size(), memoized) << "jobs " << jobs;

        ASSERT_EQ(results.size(), 3u);
        for (std::size_t t = 0; t < 2; ++t) {
            const auto &solo = solos.soloFor(
                schemes::Scheme::Shm, grid[0].tenants[t].workload,
                grid[0].keySeed, opts.run.mdcPolicy);
            for (const auto &r : results)
                EXPECT_EQ(r.tenants.at(t).soloIpc, solo.ipc)
                    << "jobs " << jobs << " tenant " << t;
        }
        EXPECT_EQ(solos.size(), memoized) << "jobs " << jobs;
    }
}

// Every scheme's cell of a scenario reads the same truth: a
// two-scheme grid simulates one Baseline per distinct scenario.
TEST(SweepRunner, ScenarioGridSimulatesOneTruthPerScenario)
{
    const gpu::GpuParams gp = scnConfig();
    std::vector<workload::ScenarioSpec> grid;
    for (Cycle q : {1000, 4000})
        grid.push_back(twoTenantMix(workload::SharePolicy::TimeSliced, q));
    grid.push_back(twoTenantMix(workload::SharePolicy::Partitioned, 2000));
    std::vector<ScenarioCell> cells;
    for (const auto &scn : grid)
        for (auto scheme : {schemes::Scheme::Pssm, schemes::Scheme::Shm})
            cells.push_back({scheme, &scn});

    const SweepRunner runner(gp);
    SweepOptions opts;
    opts.jobs = 4;
    opts.run.withSolo = false;
    runner.run(cells, opts);
    EXPECT_EQ(runner.baselineCache()->size(), grid.size());
}

// One memo serves a parallel scenario grid's solo references while
// other threads look up Baselines in it: each distinct tenant's solo
// run is simulated once, and the results equal a serial grid's.
TEST(SweepRunner, ScenarioGridSharesItsMemoWithBaselineLookups)
{
    const gpu::GpuParams gp = scnConfig();
    std::vector<workload::ScenarioSpec> grid;
    for (Cycle q : {1000, 2000, 4000})
        grid.push_back(twoTenantMix(workload::SharePolicy::TimeSliced, q));
    grid.push_back(twoTenantMix(workload::SharePolicy::Partitioned, 2000));
    std::vector<ScenarioCell> cells;
    for (const auto &scn : grid)
        cells.push_back({schemes::Scheme::Shm, &scn});
    const std::vector<workload::WorkloadSpec> specs = {
        workload::makeStreamingMicro(), workload::makeRandomMicro(),
        workload::makeMixedMicro()};

    const SweepRunner runner(gp);
    std::vector<std::thread> lookups;
    for (const auto &spec : specs)
        lookups.emplace_back(
            [&] { runner.baselineCache()->metricsFor(spec); });
    SweepOptions wide;
    wide.jobs = 4;
    const auto got = runner.run(cells, wide);
    for (auto &t : lookups)
        t.join();
    // Two distinct tenants' solo runs and their Baseline truths, one
    // Baseline truth per scenario, beside the three plain Baselines.
    const std::size_t grid_entries = 2 + 2 + grid.size();
    EXPECT_EQ(runner.baselineCache()->size(), grid_entries + specs.size());

    const SweepRunner serial(gp);
    const auto want = serial.run(cells);
    EXPECT_EQ(serial.baselineCache()->size(), grid_entries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(dumpJson(scenarioResultToJson(got[i])),
                  dumpJson(scenarioResultToJson(want[i])))
            << "cell " << i;
}

TEST(ScenarioExperiment, SweepDocumentIsDeterministic)
{
    const auto scn =
        twoTenantMix(workload::SharePolicy::TimeSliced, 2000);
    std::vector<ScenarioCell> cells = {{schemes::Scheme::Shm, &scn}};
    auto results = SweepRunner(scnConfig()).run(cells);
    json::Value doc = scenarioSweepToJson(results);
    EXPECT_EQ(doc.at("kind").asString(), "scenario-sweep");
    EXPECT_EQ(doc.at("results").size(), 1u);
    EXPECT_EQ(dumpJson(scenarioSweepToJson(results)), dumpJson(doc));
}
