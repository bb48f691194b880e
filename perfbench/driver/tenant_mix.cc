/**
 * @file
 * tenant-mix: examples/scenarios/mix2.scn (atax, plus bfs arriving at
 * cycle 5000) under SHM, time-sliced at three quantums and
 * MIG-style partitioned, serially. The solo references are simulated
 * first through a shared core::ScenarioSoloCache; each solo run and
 * each scenario cell is one timed operation.
 */

#include "bench.hh"
#include "common/profile.hh"
#include "core/scenario.hh"
#include "sim_layers.hh"
#include "workload/scenario.hh"

namespace perfbench
{

namespace
{

using namespace shmgpu;

constexpr schemes::Scheme kScheme = schemes::Scheme::Shm;

/** Nominal wall seconds of one pass (2 solo runs and 4 cells; 14 to
 *  23 s on a 4-vCPU Sapphire Rapids guest); the pass count is
 *  passesFor(--seconds, this). */
constexpr double kNominalPassSeconds = 18;

struct MixInputs
{
    gpu::GpuParams gp;
    /** Time-sliced variants in quantum order, then the partitioned one. */
    std::vector<workload::ScenarioSpec> variants;
};

MixInputs
makeInputs(const RunConfig &config)
{
    workload::ScenarioSpec base = workload::parseScenarioFile(
        config.repoRoot + "/examples/scenarios/mix2.scn");
    base.keySeed = derivedSeed(config.seed, base.keySeed);
    for (auto &t : base.tenants)
        t.workload.seed = derivedSeed(config.seed, t.workload.seed);

    MixInputs in;
    std::vector<Cycle> quantums = {2000, 10000, 50000};
    if (config.smoke) {
        in.gp.maxCyclesPerKernel = 4000;
        quantums = {1000, 3000};
    }
    for (Cycle q : quantums) {
        workload::ScenarioSpec v = base;
        v.policy = workload::SharePolicy::TimeSliced;
        v.quantumCycles = q;
        workload::validateScenario(v);
        in.variants.push_back(std::move(v));
    }
    workload::ScenarioSpec part = base;
    part.policy = workload::SharePolicy::Partitioned;
    workload::validateScenario(part);
    in.variants.push_back(std::move(part));
    return in;
}

struct MixPass
{
    double wall = 0;
    /** Wall and CPU seconds of each solo run and scenario cell, and
     *  the hostSlowdown() read just before it. */
    std::vector<double> soloSeconds, soloCpuSeconds, soloSlowdown;
    std::vector<double> cellSeconds, cellCpuSeconds, cellSlowdown;
    double soloInstructions = 0;
    std::vector<core::ScenarioExperimentResult> results;
    std::string json;
};

MixPass
runPass(const MixInputs &in, SpanRecorder &spans, const char *pass_name)
{
    MixPass pass;
    const auto t0 = Clock::now();
    {
        ScopedSpan pass_span(spans, pass_name);
        core::ScenarioSoloCache solos(in.gp);
        core::ScenarioRunOptions opts;
        opts.soloCache = &solos;

        const auto &tenants = in.variants.front().tenants;
        const std::uint64_t key_seed = in.variants.front().keySeed;
        for (const auto &t : tenants) {
            pass.soloSlowdown.push_back(hostSlowdown());
            ScopedSpan span(spans, "core.solo_s", pass_span.id());
            const Lap lap;
            const auto &solo = solos.soloFor(kScheme, t.workload, key_seed,
                                             opts.mdcPolicy);
            pass.soloSeconds.push_back(lap.wall());
            pass.soloCpuSeconds.push_back(lap.cpu());
            pass.soloInstructions += static_cast<double>(solo.instructions);
        }
        for (const auto &v : in.variants) {
            pass.cellSlowdown.push_back(hostSlowdown());
            ScopedSpan span(spans, "core.scenario_cell_s", pass_span.id());
            const Lap lap;
            pass.results.push_back(
                core::runScenarioExperiment(in.gp, kScheme, v, opts));
            pass.cellSeconds.push_back(lap.wall());
            pass.cellCpuSeconds.push_back(lap.cpu());
        }
    }
    pass.wall = secondsSince(t0);
    pass.json = core::scenarioSweepToJson(pass.results).dump(0);
    return pass;
}

/** Each scenario result must survive its JSON round trip exactly. */
void
checkRoundTrip(const MixPass &pass, Checks &checks)
{
    for (const auto &r : pass.results) {
        const std::string text = core::scenarioResultToJson(r).dump(0);
        checks.expect(core::scenarioResultToJson(
                          core::scenarioResultFromJson(json::Value::parse(text)))
                              .dump(0) == text,
                      "scenario result JSON round trip");
    }
}

double
simInstructions(const MixPass &pass)
{
    double n = pass.soloInstructions;
    for (const auto &r : pass.results)
        n += static_cast<double>(r.metrics.total.instructions);
    return n;
}

} // namespace

Outcome
runTenantMix(const RunConfig &config, Checks &checks, SpanRecorder &spans)
{
    Outcome out;
    const MixInputs in = makeInputs(config);
    SpanRecorder untraced(false);

    if (!config.trace) {
        std::vector<MixPass> passes;
        const int n_passes = passesFor(config.seconds, kNominalPassSeconds);
        // Set-up: parse the scenario and build its variants
        // (microseconds, so 50 per repetition).
        SetupTimer setup([&] { const MixInputs fresh = makeInputs(config); },
                         n_passes, 50);
        setup.round();
        while (static_cast<int>(passes.size()) < n_passes) {
            passes.push_back(runPass(in, untraced, "pass"));
            setup.round();
            checkRoundTrip(passes.back(), checks);
            if (passes.size() > 1)
                checks.expect(passes.back().json == passes.front().json,
                              "tenant-mix results identical across passes");
        }
        std::vector<double> op_cpu, op_slowdown;
        double wall = 0, insts = 0;
        for (const auto &p : passes) {
            for (const auto *v : {&p.soloCpuSeconds, &p.cellCpuSeconds})
                op_cpu.insert(op_cpu.end(), v->begin(), v->end());
            for (const auto *v : {&p.soloSlowdown, &p.cellSlowdown})
                op_slowdown.insert(op_slowdown.end(), v->begin(), v->end());
            wall += p.wall;
            insts += simInstructions(p);
        }
        // Operation k of every pass is the same simulation. Six
        // operations are too few for ten beyond, so the tail is their
        // maximum.
        fillOpMetrics(op_cpu, op_slowdown, op_cpu.size() / passes.size(),
                      wall, out);
        out.values["setup_s"] = setup.median();
        out.info["passes"] = static_cast<std::uint64_t>(passes.size());
        out.info["simMinstPerS"] = insts / wall * 1e-6;
        out.info["resultsDigest"] = digest(passes.front().json);
        checkAcrossRuns(config, digest(passes.front().json), checks);
        return out;
    }

    const MixPass plain = runPass(in, untraced, "pass");
    checkRoundTrip(plain, checks);
    shmgpu::profile::reset();
    shmgpu::profile::setEnabled(true);
    const MixPass traced = runPass(in, spans, "pass.traced");
    shmgpu::profile::setEnabled(false);
    checks.expect(traced.json == plain.json,
                  "tenant-mix traced results identical to untraced");

    auto &v = out.values;
    SimLayers layers;
    double switches = 0, flushes = 0, slowdown = 0, ro_delta = 0,
           mdc_delta = 0, tenants = 0;
    std::vector<double> sliced_switches, sliced_seconds;
    for (std::size_t i = 0; i < traced.results.size(); ++i) {
        const auto &r = traced.results[i];
        const gpu::ScenarioMetrics &m = r.metrics;
        layers.add(r.scheme, m.total, traced.cellSeconds[i]);
        switches += static_cast<double>(m.contextSwitches);
        flushes += static_cast<double>(m.mdcFlushWritebacks);
        slowdown += r.meanSlowdown;
        for (const auto &t : r.tenants) {
            ro_delta += t.roAccuracyDelta;
            mdc_delta += t.mdcHitRateDelta;
            tenants += 1;
        }
        if (r.sharePolicy == "timeslice") {
            sliced_switches.push_back(static_cast<double>(m.contextSwitches));
            sliced_seconds.push_back(traced.cellCpuSeconds[i]);
        }
    }
    layers.fill(v);
    fillProfile(v);
    double solo_s = 0, cells_s = 0;
    for (double s : traced.soloSeconds)
        solo_s += s;
    for (double s : traced.cellSeconds)
        cells_s += s;
    v["core.solo_s"] = solo_s;
    v["core.scenario_cell_s"] = cells_s;
    v["core.span_coverage"] = (solo_s + cells_s) / traced.wall;
    v["gpu.context_switches"] = switches;
    v["gpu.mdc_flush_writebacks"] = flushes;
    v["gpu.switch_host_us"] = slope(sliced_switches, sliced_seconds) * 1e6;
    v["gpu.sim_minst_per_s"] = simInstructions(plain) / plain.wall * 1e-6;
    v["detect.ro_accuracy_delta"] = ro_delta / tenants;
    v["mee.mdc_hit_rate_delta"] = mdc_delta / tenants;
    v["tenant.slowdown"] =
        slowdown / static_cast<double>(traced.results.size());
    v["trace_overhead"] = traced.wall / plain.wall;
    out.info["resultsDigest"] = digest(plain.json);
    checkAcrossRuns(config, digest(plain.json), checks);
    return out;
}

} // namespace perfbench
