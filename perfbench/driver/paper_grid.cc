/**
 * @file
 * paper-grid: the 16 Table VII workloads x {Naive, PSSM, SHM} on the
 * Turing preset, run through core::SweepRunner into a fresh
 * ResultCache directory the way `shmgpu sweep --results-dir` does.
 * Baselines are simulated first, explicitly, on the same number of
 * threads; every baseline and every cell is one timed operation.
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "common/profile.hh"
#include "core/result_cache.hh"
#include "core/sweep.hh"
#include "sim_layers.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

namespace
{

using namespace shmgpu;

/** Nominal wall seconds of one pass at 4 jobs (64 operations; 7 to
 *  10 s on a 4-vCPU Sapphire Rapids guest); the pass count is
 *  passesFor(--seconds, this). */
constexpr double kNominalPassSeconds = 7.5;

const std::vector<schemes::Scheme> kSchemes = {
    schemes::Scheme::Naive, schemes::Scheme::Pssm, schemes::Scheme::Shm};

/** Span name of a cell of @p scheme (static storage for the recorder). */
const char *
cellSpanName(const std::string &scheme)
{
    if (scheme == "Naive")
        return "core.cell_s.Naive";
    if (scheme == "PSSM")
        return "core.cell_s.PSSM";
    return "core.cell_s.SHM";
}

struct TimedOp
{
    std::string scheme; //!< "Baseline" for baseline passes
    std::string workload;
    double seconds = 0; //!< wall
    double cpuSeconds = 0;
    double slowdown = 1; //!< hostSlowdown() just before
    gpu::RunMetrics metrics;
};

/** SweepRunner whose runCell seam times (and, traced, spans) cells. */
class TimedRunner : public core::SweepRunner
{
  public:
    TimedRunner(const gpu::GpuParams &gp, SpanRecorder &recorder,
                std::uint32_t parent_span)
        : core::SweepRunner(gp), spans(recorder), parent(parent_span)
    {
    }

    std::vector<TimedOp> takeOps() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return ops;
    }

    void record(TimedOp op) const
    {
        std::lock_guard<std::mutex> lock(mutex);
        ops.push_back(std::move(op));
    }

  protected:
    core::ExperimentResult
    runCell(const core::Experiment &experiment, const core::SweepCell &cell,
            const core::RunOptions &options) const override
    {
        const std::string scheme = schemes::schemeName(cell.scheme);
        const double slowdown = hostSlowdown();
        ScopedSpan span(spans, cellSpanName(scheme), parent);
        const Lap lap;
        core::ExperimentResult r =
            core::SweepRunner::runCell(experiment, cell, options);
        record({scheme, cell.spec->name, lap.wall(), lap.cpu(), slowdown,
                r.metrics});
        return r;
    }

  private:
    SpanRecorder &spans;
    std::uint32_t parent;
    mutable std::mutex mutex;
    mutable std::vector<TimedOp> ops;
};

/** The grid's inputs: Table VII specs with seeds derived from the
 *  workload seed, and the GPU preset. */
struct GridInputs
{
    gpu::GpuParams gp;
    std::vector<workload::WorkloadSpec> specs;
};

GridInputs
makeInputs(const RunConfig &config)
{
    GridInputs in;
    in.gp = gpu::GpuParams{}; // the Turing preset
    const auto &all = workload::allWorkloads();
    const std::size_t n = config.smoke ? 2 : all.size();
    if (config.smoke)
        in.gp.maxCyclesPerKernel = 4000;
    in.specs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workload::WorkloadSpec spec = all[i];
        spec.seed = derivedSeed(config.seed, spec.seed);
        workload::validateSpec(spec);
        in.specs.push_back(std::move(spec));
    }
    return in;
}

struct GridPass
{
    double wall = 0;
    std::vector<TimedOp> ops;
    std::vector<core::ExperimentResult> results;
    std::string json;
};

/**
 * One pass over the grid: baselines on @p jobs threads, then the
 * sweep into a fresh ResultCache at @p cache_dir.
 */
GridPass
runPass(const GridInputs &in, unsigned jobs, const std::string &cache_dir,
        SpanRecorder &spans, const char *pass_name)
{
    std::filesystem::remove_all(cache_dir);
    core::ResultCache cache(cache_dir);

    GridPass pass;
    const auto t0 = Clock::now();
    {
        ScopedSpan pass_span(spans, pass_name);
        TimedRunner runner(in.gp, spans, pass_span.id());

        std::atomic<std::size_t> next{0};
        auto baseline_worker = [&] {
            for (std::size_t i = next.fetch_add(1); i < in.specs.size();
                 i = next.fetch_add(1)) {
                const double slowdown = hostSlowdown();
                ScopedSpan span(spans, "core.baseline_s", pass_span.id());
                const Lap lap;
                const gpu::RunMetrics &m =
                    runner.baselineCache()->metricsFor(in.specs[i]);
                runner.record({"Baseline", in.specs[i].name, lap.wall(),
                               lap.cpu(), slowdown, m});
            }
        };
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < jobs; ++t)
            pool.emplace_back(baseline_worker);
        baseline_worker();
        for (auto &t : pool)
            t.join();

        std::vector<const workload::WorkloadSpec *> specs;
        for (const auto &spec : in.specs)
            specs.push_back(&spec);
        core::SweepOptions opts;
        opts.jobs = jobs;
        opts.cache = &cache;
        pass.results = runner.run(kSchemes, specs, opts);
        pass.ops = runner.takeOps();
    }
    pass.wall = secondsSince(t0);
    // Completion order varies with the pool; keep one order per pass.
    std::sort(pass.ops.begin(), pass.ops.end(),
              [](const TimedOp &a, const TimedOp &b) {
                  return std::tie(a.scheme, a.workload) <
                         std::tie(b.scheme, b.workload);
              });
    pass.json = core::sweepToJson(pass.results).dump(0);
    return pass;
}

/**
 * Check that every cell of @p pass round-trips through the cache at
 * @p cache_dir; returns the seconds spent loading.
 */
double
checkRoundTrip(const GridInputs &in, const GridPass &pass,
               const std::string &cache_dir, Checks &checks)
{
    core::ResultCache cache(cache_dir);
    double load_seconds = 0;
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
        const auto &spec = in.specs[i / kSchemes.size()];
        const auto scheme = kSchemes[i % kSchemes.size()];
        const std::uint64_t key =
            core::cellKey(in.gp, gpu::EnergyParams{}, core::RunOptions{},
                          scheme, spec, crypto::activeBackend());
        core::ExperimentResult loaded;
        const auto t0 = Clock::now();
        const bool hit = cache.load(key, &loaded);
        load_seconds += secondsSince(t0);
        checks.expect(hit && core::resultToJson(loaded).dump(0) ==
                                 core::resultToJson(pass.results[i]).dump(0),
                      "result cache round trip of " + spec.name + "/" +
                          schemes::schemeName(scheme));
    }
    return load_seconds;
}

/** |simulated - paper| fidelity errors, in percentage points. */
void
fillFidelity(const RunConfig &config,
             const std::vector<core::ExperimentResult> &results,
             std::map<std::string, double> &values)
{
    const json::Value ref =
        json::Value::parseFile(config.benchDir() + "/paper_reference.json");
    const auto &ipc_ref = ref.at("fig12_ipc_overhead_pct");
    double err_sum = 0;
    for (const auto &[scheme, paper] : ipc_ref.members()) {
        std::vector<double> norm;
        for (const auto &r : results) {
            if (r.scheme == scheme)
                norm.push_back(r.normalizedIpc);
        }
        const double overhead = 100.0 * (1.0 - core::geomean(norm));
        err_sum += std::fabs(overhead - paper.asNumber());
    }
    values["paper_ipc_err_pp"] =
        err_sum / static_cast<double>(ipc_ref.members().size());

    const auto &bw_ref = ref.at("fig14_metadata_bw_overhead_pct");
    double mdbw_err = 0;
    for (const auto &[scheme, paper] : bw_ref.members()) {
        double sum = 0, n = 0;
        for (const auto &r : results) {
            if (r.scheme == scheme) {
                sum += r.metrics.metadataOverhead();
                n += 1;
            }
        }
        mdbw_err += std::fabs(100.0 * sum / n - paper.asNumber());
    }
    values["paper_mdbw_err_pp"] =
        mdbw_err / static_cast<double>(bw_ref.members().size());
}

double
poolIdleFrac(const GridPass &pass, unsigned jobs)
{
    double busy = 0;
    for (const auto &op : pass.ops)
        busy += op.seconds;
    return 1.0 - busy / (jobs * pass.wall);
}

double
simInstructions(const GridPass &pass)
{
    double n = 0;
    for (const auto &op : pass.ops)
        n += static_cast<double>(op.metrics.instructions);
    return n;
}

} // namespace

Outcome
runPaperGrid(const RunConfig &config, Checks &checks, SpanRecorder &spans)
{
    Outcome out;
    const std::string dir = config.workDir() + "/paper-grid-" +
                            std::to_string(static_cast<long>(::getpid()));

    const GridInputs in = makeInputs(config);

    SpanRecorder untraced(false);
    const std::string cache_dir = dir + "/cache";

    if (!config.trace) {
        std::vector<GridPass> passes;
        const int n_passes = passesFor(config.seconds, kNominalPassSeconds);
        // Set-up: generate the specs and build the runner (microseconds,
        // so 50 per repetition). Each pass makes its result cache's
        // directory outside the set-up.
        SetupTimer setup(
            [&] {
                const GridInputs fresh = makeInputs(config);
                const core::SweepRunner runner(fresh.gp);
            },
            n_passes, 50);
        setup.round();
        while (static_cast<int>(passes.size()) < n_passes) {
            passes.push_back(runPass(in, config.jobs, cache_dir, untraced,
                                     "pass"));
            setup.round();
            checkRoundTrip(in, passes.back(), cache_dir, checks);
            if (passes.size() > 1)
                checks.expect(passes.back().json == passes.front().json,
                              "paper-grid results identical across passes");
        }
        std::vector<double> op_cpu, op_slowdown;
        double wall = 0, insts = 0;
        for (const auto &p : passes) {
            for (const auto &op : p.ops) {
                op_cpu.push_back(op.cpuSeconds);
                op_slowdown.push_back(op.slowdown);
            }
            wall += p.wall;
            insts += simInstructions(p);
        }
        // Operation k of every pass is the same cell (passes are sorted
        // by scheme and workload).
        fillOpMetrics(op_cpu, op_slowdown, passes.front().ops.size(), wall,
                      out);
        out.values["setup_s"] = setup.median();
        out.info["passes"] = static_cast<std::uint64_t>(passes.size());
        out.info["cellsPerPass"] =
            static_cast<std::uint64_t>(passes.front().ops.size());
        out.info["poolIdleFrac"] = poolIdleFrac(passes.front(), config.jobs);
        out.info["simMinstPerS"] = insts / wall * 1e-6;
        out.info["resultsDigest"] = digest(passes.front().json);
        checkAcrossRuns(config, digest(passes.front().json), checks);
        std::map<std::string, double> fidelity;
        fillFidelity(config, passes.front().results, fidelity);
        for (const auto &[k, v] : fidelity)
            out.info[k] = v;
        std::filesystem::remove_all(dir);
        return out;
    }

    // Traced: an untraced pass, the same pass traced and profiled, and
    // a traced serial pass whose spans and profile phases are per cell.
    const GridPass plain =
        runPass(in, config.jobs, cache_dir, untraced, "pass");
    const double load_seconds = checkRoundTrip(in, plain, cache_dir, checks);
    shmgpu::profile::setEnabled(true);
    const GridPass traced =
        runPass(in, config.jobs, cache_dir + "-traced", spans, "pass.traced");
    shmgpu::profile::reset();
    const GridPass serial =
        runPass(in, 1, cache_dir + "-serial", spans, "pass.serial");
    shmgpu::profile::setEnabled(false);
    checks.expect(traced.json == plain.json,
                  "paper-grid traced results identical to untraced");
    checks.expect(serial.json == plain.json,
                  "paper-grid serial results identical to parallel");

    // Time storing the grid into a fresh cache.
    const std::string store_dir = dir + "/store";
    std::filesystem::remove_all(store_dir);
    double store_seconds = 0;
    {
        core::ResultCache cache(store_dir);
        for (std::size_t i = 0; i < plain.results.size(); ++i) {
            const std::uint64_t key = core::cellKey(
                in.gp, gpu::EnergyParams{}, core::RunOptions{},
                kSchemes[i % kSchemes.size()],
                in.specs[i / kSchemes.size()], crypto::activeBackend());
            const auto t0 = Clock::now();
            cache.store(key, plain.results[i]);
            store_seconds += secondsSince(t0);
        }
    }
    checkRoundTrip(in, plain, store_dir, checks);

    auto &v = out.values;
    SimLayers layers;
    double baseline_s = 0, cells_s = 0;
    for (const auto &op : serial.ops) {
        layers.add(op.scheme, op.metrics, op.seconds);
        if (op.scheme == "Baseline") {
            baseline_s += op.seconds;
        } else {
            v[cellSpanName(op.scheme)] += op.seconds;
            cells_s += op.seconds;
        }
    }
    layers.fill(v);
    fillProfile(v);
    fillFidelity(config, plain.results, v);
    v["core.baseline_s"] = baseline_s;
    v["core.span_coverage"] = (baseline_s + cells_s) / serial.wall;
    v["core.pool_idle_frac"] = poolIdleFrac(plain, config.jobs);
    v["core.result_cache.store_ms"] = store_seconds * 1e3;
    v["core.result_cache.load_ms"] = load_seconds * 1e3;
    v["gpu.sim_minst_per_s"] = simInstructions(plain) / plain.wall * 1e-6;
    v["trace_overhead"] = traced.wall / plain.wall;
    out.info["resultsDigest"] = digest(plain.json);
    checkAcrossRuns(config, digest(plain.json), checks);
    out.info["serialWallS"] = serial.wall;
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace perfbench
