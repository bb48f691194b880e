#include "core/sweep.hh"

#include <algorithm>
#include <exception>
#include <iterator>
#include <map>
#include <numeric>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "core/result_cache.hh"

namespace shmgpu::core
{

SweepRunner::SweepRunner(const gpu::GpuParams &gpu_params,
                         const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      baselines(std::make_shared<BaselineCache>(gpu_params))
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
    std::atomic<bool> auto_cancel{false};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> n_simulated{0};
    std::atomic<std::size_t> n_cached{0};
    std::vector<std::exception_ptr> errors(n);

    auto cancelled = [&] {
        return (options.cancel && options.cancel->load()) ||
               auto_cancel.load();
    };

    auto worker = [&] {
        while (true) {
            const std::size_t claim = next_claim.fetch_add(1);
            if (claim >= n || stop.load() || cancelled())
                return;
            const std::size_t i = order[claim];
            try {
                (body(i) ? n_cached : n_simulated).fetch_add(1);
                const std::size_t completed = done.fetch_add(1) + 1;
                if (options.cancelAfter != 0 &&
                    completed >= options.cancelAfter)
                    auto_cancel.store(true);
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
    return cancelled();
}

std::vector<ExperimentResult>
SweepRunner::runCells(const std::vector<SweepCell> &cells,
                      const SweepOptions &options) const
{
    const std::size_t n = cells.size();
    std::vector<ExperimentResult> results(n);
    // Which slots hold finished results — what SweepCancelled keeps.
    // One writer per slot; read only after the pool has joined.
    std::vector<char> finished(n, 0);
    const Experiment experiment(baselines, energyConfig);
    const std::string &code_version = codeVersion();
    const crypto::Backend backend = crypto::activeBackend();
    std::vector<double> cost(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        if (cells[i].spec)
            cost[i] = estimateCellCost(
                *cells[i].spec, baselines->gpuParams().maxCyclesPerKernel);

    const bool cancelled = runCellPool(n, options, [&](std::size_t i) {
        std::uint64_t key = 0;
        bool hit = false;
        if (options.cache) {
            key = cellKey(baselines->gpuParams(), energyConfig,
                          options.run, cells[i].scheme, *cells[i].spec,
                          backend, code_version);
            hit = options.cache->load(key, &results[i]);
        }
        if (!hit) {
            results[i] = runCell(experiment, cells[i], options.run);
            // Publish the moment the cell finishes: a sweep killed one
            // cell later resumes from here.
            if (options.cache)
                options.cache->store(key, results[i]);
        }
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

json::Value
runMetricsToJson(const gpu::RunMetrics &m)
{
    json::Value v = json::Value::object();
    v["cycles"] = json::Value(static_cast<std::uint64_t>(m.cycles));
    v["instructions"] = json::Value(m.instructions);
    v["ipc"] = json::Value(m.ipc);
    v["bytesData"] = json::Value(m.bytesData);
    v["bytesCounter"] = json::Value(m.bytesCounter);
    v["bytesMac"] = json::Value(m.bytesMac);
    v["bytesBmt"] = json::Value(m.bytesBmt);
    v["bytesExtra"] = json::Value(m.bytesExtra);
    v["metadataOverhead"] = json::Value(m.metadataOverhead());
    v["bandwidthUtilization"] = json::Value(m.bandwidthUtilization);
    v["l2MissRate"] = json::Value(m.l2MissRate);
    v["roCorrect"] = json::Value(m.roCorrect);
    v["roMpInit"] = json::Value(m.roMpInit);
    v["roMpAliasing"] = json::Value(m.roMpAliasing);
    v["strCorrect"] = json::Value(m.strCorrect);
    v["strMpInit"] = json::Value(m.strMpInit);
    v["strMpAliasing"] = json::Value(m.strMpAliasing);
    v["strMpRuntimeRo"] = json::Value(m.strMpRuntimeRo);
    v["strMpRuntimeNonRo"] = json::Value(m.strMpRuntimeNonRo);
    v["sharedCtrReads"] = json::Value(m.sharedCtrReads);
    v["commonCtrHits"] = json::Value(m.commonCtrHits);
    v["roTransitions"] = json::Value(m.roTransitions);
    v["chunkMacAccesses"] = json::Value(m.chunkMacAccesses);
    v["blockMacAccesses"] = json::Value(m.blockMacAccesses);
    v["dualMacFallbacks"] = json::Value(m.dualMacFallbacks);
    v["victimHits"] = json::Value(m.victimHits);
    v["victimInserts"] = json::Value(m.victimInserts);

    json::Value energy = json::Value::object();
    energy["cycles"] =
        json::Value(static_cast<std::uint64_t>(m.energy.cycles));
    energy["instructions"] = json::Value(m.energy.instructions);
    energy["l2Accesses"] = json::Value(m.energy.l2Accesses);
    energy["dramBytes"] = json::Value(m.energy.dramBytes);
    energy["mdcAccesses"] = json::Value(m.energy.mdcAccesses);
    energy["aesBlocks"] = json::Value(m.energy.aesBlocks);
    energy["hashes"] = json::Value(m.energy.hashes);
    v["energy"] = std::move(energy);
    return v;
}

json::Value
resultToJson(const ExperimentResult &result)
{
    json::Value v = json::Value::object();
    v["workload"] = json::Value(result.workload);
    v["scheme"] = json::Value(result.scheme);
    v["l2Policy"] = json::Value(result.l2Policy);
    v["mdcPolicy"] = json::Value(result.mdcPolicy);
    v["normalizedIpc"] = json::Value(result.normalizedIpc);
    v["overhead"] = json::Value(result.overhead());
    v["normalizedEnergyPerInstr"] =
        json::Value(result.normalizedEnergyPerInstr);
    v["metrics"] = runMetricsToJson(result.metrics);
    v["baseline"] = runMetricsToJson(result.baseline);
    return v;
}

json::Value
sweepToJson(const std::vector<ExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    // v2: results carry "l2Policy"/"mdcPolicy" (replacement-policy axis).
    doc["schemaVersion"] = json::Value(2);
    doc["cells"] = json::Value(results.size());

    json::Value arr = json::Value::array();
    for (const auto &r : results)
        arr.append(resultToJson(r));
    doc["results"] = std::move(arr);

    // Per-scheme geomean summary in first-appearance order (the
    // figure footer rows). Skips non-positive values the way the
    // benches never produce but a truncated run might.
    std::vector<std::string> scheme_order;
    std::map<std::string, std::vector<double>> ipc_by_scheme;
    for (const auto &r : results) {
        if (!ipc_by_scheme.contains(r.scheme))
            scheme_order.push_back(r.scheme);
        if (r.normalizedIpc > 0)
            ipc_by_scheme[r.scheme].push_back(r.normalizedIpc);
    }
    json::Value summary = json::Value::object();
    for (const auto &scheme : scheme_order) {
        const auto &vals = ipc_by_scheme[scheme];
        summary[scheme] = json::Value(
            vals.empty() ? 0.0 : geomean(vals));
    }
    doc["geomeanNormalizedIpc"] = std::move(summary);
    return doc;
}

void
writeSweepJson(std::ostream &os,
               const std::vector<ExperimentResult> &results)
{
    sweepToJson(results).write(os, 2);
    os << "\n";
}

} // namespace shmgpu::core
