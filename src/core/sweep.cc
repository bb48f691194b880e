#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <numeric>
#include <thread>

#include "common/logging.hh"
#include "core/result_cache.hh"
#include "core/scenario.hh"

namespace shmgpu::core
{

SweepRunner::SweepRunner(const gpu::GpuParams &gpu_params,
                         const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      memo(std::make_shared<RunMemo>(gpu_params))
{
}

ExperimentResult
SweepRunner::runCell(const Experiment &experiment, const SweepCell &cell,
                     const RunOptions &options) const
{
    shm_assert(cell.spec != nullptr, "sweep cell without a workload");
    return experiment.run(cell.scheme, *cell.spec, options);
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<schemes::Scheme> &schemes,
                 const std::vector<const workload::WorkloadSpec *>
                     &workloads,
                 const SweepOptions &options) const
{
    std::vector<SweepCell> cells;
    cells.reserve(schemes.size() * workloads.size());
    for (const auto *w : workloads)
        for (auto s : schemes)
            cells.push_back({s, w});
    return runCells(cells, options);
}

double
estimateCellCost(const workload::WorkloadSpec &spec,
                 Cycle max_cycles_per_kernel)
{
    double cost = 0;
    for (const workload::KernelSpec &k : spec.kernels) {
        double prob = 0;
        for (const workload::StreamSpec &s : k.streams)
            prob += s.prob;
        cost += std::min(static_cast<double>(k.iterationsPerSm) * prob,
                         static_cast<double>(max_cycles_per_kernel) /
                             (k.computePerMem + 1.0));
    }
    return cost;
}

bool
runCellPool(std::size_t n, const SweepOptions &options,
            const std::function<bool(std::size_t)> &body,
            const std::vector<double> &cost)
{
    if (n == 0)
        return false;
    shm_assert(cost.empty() || cost.size() == n,
               "{} cell costs for {} cells", cost.size(), n);

    // The claim order: longest first, ties (and no estimate) in index
    // order.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (!cost.empty())
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost[a] > cost[b];
                         });

    unsigned jobs = options.jobs != 0
                        ? options.jobs
                        : std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(jobs, n));

    std::atomic<std::size_t> next_claim{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> cancelled{false};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> n_simulated{0};
    std::atomic<std::size_t> n_cached{0};
    std::vector<std::exception_ptr> errors(n);

    auto worker = [&] {
        while (true) {
            const std::size_t claim = next_claim.fetch_add(1);
            if (claim >= n || stop.load() || cancelled.load())
                return;
            const std::size_t i = order[claim];
            try {
                (body(i) ? n_cached : n_simulated).fetch_add(1);
                const std::size_t completed = done.fetch_add(1) + 1;
                if (options.cancelAfter != 0 &&
                    completed >= options.cancelAfter)
                    cancelled.store(true);
            } catch (...) {
                errors[i] = std::current_exception();
                stop.store(true); // abandon unstarted cells
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }

    if (options.tally) {
        options.tally->simulated = n_simulated.load();
        options.tally->cached = n_cached.load();
    }

    // Rethrow the failure with the lowest cell index so the caller
    // sees the same error no matter how cells were scheduled.
    for (const auto &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }
    return cancelled.load();
}

namespace
{

/**
 * The cache-or-simulate body both grid kinds run per cell: slot i of
 * @p results is loaded from options.cache under key(i) when there,
 * else simulated by simulate(i) and published the moment it finishes
 * (a sweep killed one cell later resumes from there). The body
 * returns true on a cache hit, as runCellPool expects.
 */
template <typename Result, typename Key, typename Simulate>
auto
cacheOrSimulate(std::vector<Result> &results, const SweepOptions &options,
                Key key, Simulate simulate)
{
    return [&results, &options, key, simulate](std::size_t i) {
        std::uint64_t k = 0;
        if (options.cache) {
            k = key(i);
            if (options.cache->load(k, &results[i]))
                return true;
        }
        results[i] = simulate(i);
        if (options.cache)
            options.cache->store(k, results[i]);
        return false;
    };
}

} // namespace

std::vector<ExperimentResult>
SweepRunner::runCells(const std::vector<SweepCell> &cells,
                      const SweepOptions &options) const
{
    const std::size_t n = cells.size();
    std::vector<ExperimentResult> results(n);
    // Which slots hold finished results — what SweepCancelled keeps.
    // One writer per slot; read only after the pool has joined.
    std::vector<char> finished(n, 0);
    const Experiment experiment(memo, energyConfig);
    const std::string &code_version = codeVersion();
    const crypto::Backend backend = crypto::activeBackend();
    std::vector<double> cost(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (!cells[i].spec)
            continue;
        cost[i] = estimateCellCost(*cells[i].spec,
                                   gpuParams().maxCyclesPerKernel);
        // One Baseline run per workload: where a cell reads the truth,
        // every cell of that workload normalizes against the run that
        // carries it.
        if (readsTruth(cells[i].scheme, options.run))
            memo->shareTruth(*cells[i].spec,
                             schemes::makeMeeParams(cells[i].scheme));
    }

    auto body = cacheOrSimulate(
        results, options,
        [&](std::size_t i) {
            return cellKey(gpuParams(), energyConfig, options.run,
                           cells[i].scheme, *cells[i].spec, backend,
                           code_version);
        },
        [&](std::size_t i) {
            if (options.traceDir.empty())
                return runCell(experiment, cells[i], options.run);
            RunOptions traced = options.run;
            traced.tracePath = options.traceDir + "/" + cells[i].spec->name +
                               "_" + schemes::schemeName(cells[i].scheme) +
                               ".trace.json";
            return runCell(experiment, cells[i], traced);
        });
    const bool cancelled = runCellPool(n, options, [&](std::size_t i) {
        const bool hit = body(i);
        finished[i] = 1;
        return hit;
    }, cost);

    if (cancelled) {
        // Hand the finished cells back (grid order, gaps removed):
        // with a cache attached they are already flushed to disk, so
        // the caller can report "partial, resumable" instead of
        // silently discarding completed work.
        SweepCancelled ex;
        ex.totalCells = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (finished[i])
                ex.partial.push_back(std::move(results[i]));
        }
        throw ex;
    }
    return results;
}

std::vector<ScenarioExperimentResult>
SweepRunner::run(const std::vector<ScenarioCell> &cells,
                 const SweepOptions &options) const
{
    shm_assert(options.cancelAfter == 0 && options.traceDir.empty(),
               "scenario grids take no cancel point or trace directory");
    // Reject unsupported combinations before any cell simulates.
    std::vector<double> cost(cells.size(), 0.0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        shm_assert(cells[i].scenario != nullptr,
                   "scenario cell without a scenario");
        checkScenario(gpuParams(), cells[i].scheme, *cells[i].scenario);
        for (const workload::TenantSpec &t : cells[i].scenario->tenants)
            cost[i] += estimateCellCost(t.workload,
                                        gpuParams().maxCyclesPerKernel);
    }
    // Solo references are shared across the whole grid: a quantum
    // sweep over one scenario pays for each tenant's solo run once.
    RunOptions run = options.run;
    if (run.soloCache == nullptr)
        run.soloCache = memo.get();
    const std::string &code_version = codeVersion();
    const crypto::Backend backend = crypto::activeBackend();

    std::vector<ScenarioExperimentResult> results(cells.size());
    runCellPool(cells.size(), options,
                cacheOrSimulate(
                    results, options,
                    [&](std::size_t i) {
                        return scenarioCellKey(
                            gpuParams(), energyConfig, run.withSolo,
                            run.mdcPolicy, cells[i].scheme,
                            *cells[i].scenario, backend, code_version);
                    },
                    [&](std::size_t i) {
                        return runScenarioExperiment(gpuParams(),
                                                     cells[i].scheme,
                                                     *cells[i].scenario,
                                                     run);
                    }),
                cost);
    return results;
}

std::vector<ExperimentResult>
runPolicyGrid(const gpu::GpuParams &base,
              const std::vector<mem::PolicyKind> &policies,
              const std::vector<schemes::Scheme> &schemes,
              const std::vector<const workload::WorkloadSpec *> &workloads,
              const SweepOptions &options)
{
    std::vector<ExperimentResult> all;
    all.reserve(policies.size() * schemes.size() * workloads.size());
    for (mem::PolicyKind policy : policies) {
        gpu::GpuParams gp = base;
        gp.l2Policy = policy;
        SweepOptions opts = options;
        opts.run.mdcPolicy = policy;
        SweepRunner runner(gp);
        auto results = runner.run(schemes, workloads, opts);
        all.insert(all.end(), std::make_move_iterator(results.begin()),
                   std::make_move_iterator(results.end()));
    }
    return all;
}

} // namespace shmgpu::core
