/**
 * @file
 * The library's top-level facade: run (scheme x workload) experiments
 * and get back paper-style metrics.
 *
 * Typical use:
 * @code
 *   shmgpu::core::Experiment exp;
 *   auto r = exp.run(shmgpu::schemes::Scheme::Shm,
 *                    shmgpu::workload::findWorkload("lbm"));
 *   std::cout << r.normalizedIpc << "\n";
 * @endcode
 *
 * Experiment itself holds no per-run state beyond the shared
 * BaselineCache, so one instance may be used from many threads at
 * once (core::SweepRunner does exactly that), and several instances
 * constructed with the same cache share baseline simulations.
 */

#ifndef SHMGPU_CORE_EXPERIMENT_HH
#define SHMGPU_CORE_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>

#include "common/once_map.hh"
#include "common/trace.hh"
#include "gpu/energy.hh"
#include "gpu/metrics.hh"
#include "gpu/params.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"

namespace shmgpu::gpu
{
class GpuSimulator;
} // namespace shmgpu::gpu

namespace shmgpu::core
{

/** Called with a finished measured simulator, e.g. to dump its stats
 *  tree. */
using SimulatorHook = std::function<void(gpu::GpuSimulator &)>;

/** How one measured simulation is set up and observed. */
struct MeasureOptions
{
    /**
     * Run a Baseline truth pass over the same scenario first and
     * attribute every prediction against it (the Fig. 10/11 tallies).
     * Schemes that prime from a profile (SHM_upper_bound) run the
     * pass regardless.
     */
    bool attribute = false;
    /** Replacement policy of the measured run's metadata caches. */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
    /** @{ Trace exports of the measured run (never the truth pass);
     *  an empty path skips that format. */
    std::string tracePath;
    std::string traceTextPath;
    trace::TraceParams traceParams;
    /** @} */
    /** Called with the finished simulator. */
    SimulatorHook inspect;
};

/**
 * The one measured-run path: simulate @p scenario under @p scheme —
 * after the Baseline truth pass when attribution or priming needs it,
 * with the tracer attached when an export is requested — and return
 * its metrics. A single workload or trace is the one-tenant scenario
 * (workload::singleTenantScenario). Every experiment entry point
 * (Experiment::run, BaselineCache, runScenarioExperiment and its solo
 * references) and the CLI's trace replay go through here.
 */
gpu::ScenarioMetrics measure(const gpu::GpuParams &gpu_params,
                             schemes::Scheme scheme,
                             const workload::ScenarioSpec &scenario,
                             const MeasureOptions &options = {});

/** Options for one experiment run. */
struct RunOptions
{
    /**
     * Run a profiling pass first and attribute every prediction
     * against its ground truth (enables the Fig. 10/11 tallies).
     * Implied for SHM_upper_bound.
     */
    bool collectAccuracy = false;

    /**
     * When non-empty, attach a tracer to the measured simulation
     * (never the profile or baseline passes) and export a Chrome
     * trace_event JSON file to this path.
     */
    std::string tracePath;

    /**
     * When non-empty, export one trace per cell to
     * <traceDir>/<workload>_<scheme>.trace.json. Used by the sweep
     * runner, where a single tracePath would be overwritten by every
     * grid cell.
     */
    std::string traceDir;

    /**
     * When non-empty, also export the deterministic line-per-event
     * text dump to this path (diff-friendly A/B format).
     */
    std::string traceTextPath;

    /** Tracer configuration (event-class filter, ring capacity). */
    trace::TraceParams traceParams;

    /**
     * Replacement policy for the MEE metadata caches (`mee.mdc_policy`
     * / `--policy`). Carried in RunOptions rather than GpuParams
     * because the scheme registry owns MeeParams construction: the
     * experiment stamps this into whatever makeMeeParams returns, for
     * the measured pass only (baseline and profile passes have no
     * metadata caches to steer).
     */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
};

/** One (scheme, workload) result, normalized to the baseline. */
struct ExperimentResult
{
    std::string workload;
    std::string scheme;
    /** Replacement policies the cell ran under ("lru", "sieve", ...). */
    std::string l2Policy;
    std::string mdcPolicy;
    gpu::RunMetrics metrics;
    gpu::RunMetrics baseline;

    /** IPC / baseline IPC (Fig. 12/13/16). <= ~1.0. */
    double normalizedIpc = 0;
    /** Performance overhead = 1 - normalizedIpc. */
    double overhead() const { return 1.0 - normalizedIpc; }
    /** Energy-per-instruction / baseline (Fig. 15). */
    double normalizedEnergyPerInstr = 0;
};

/**
 * Thread-safe store of no-security baseline metrics, keyed by
 * workload::contentHash so distinct specs sharing a name (regenerated
 * parameter sweeps) never alias. Each unique spec is simulated
 * exactly once even under concurrent lookups (a OnceMap).
 */
class BaselineCache
{
  public:
    explicit BaselineCache(const gpu::GpuParams &gpu_params);

    /** Metrics for @p spec, simulating on first use. The returned
     *  reference stays valid for the cache's lifetime. */
    const gpu::RunMetrics &metricsFor(const workload::WorkloadSpec &spec);

    /** Number of distinct specs simulated so far. */
    std::size_t size() const { return entries.size(); }

    const gpu::GpuParams &gpuParams() const { return gpuConfig; }

  private:
    gpu::GpuParams gpuConfig;
    OnceMap<gpu::RunMetrics> entries;
};

/** Runs experiments against a (possibly shared) baseline cache. */
class Experiment
{
  public:
    explicit Experiment(const gpu::GpuParams &gpu_params = {},
                        const gpu::EnergyParams &energy_params = {});

    /** Share @p baselines (GPU parameters come from the cache). */
    Experiment(std::shared_ptr<BaselineCache> baselines,
               const gpu::EnergyParams &energy_params = {});

    /** Simulate @p scheme on @p spec (baseline simulated on demand);
     *  @p inspect sees the measured simulator once it has run. */
    ExperimentResult run(schemes::Scheme scheme,
                         const workload::WorkloadSpec &spec,
                         const RunOptions &options = {},
                         const SimulatorHook &inspect = {}) const;

    /** The no-security metrics for @p spec, cached by content hash. */
    const gpu::RunMetrics &
    baselineFor(const workload::WorkloadSpec &spec) const;

    const gpu::GpuParams &gpuParams() const
    {
        return baselines->gpuParams();
    }
    const gpu::EnergyParams &energyParams() const { return energyConfig; }
    const std::shared_ptr<BaselineCache> &baselineCache() const
    {
        return baselines;
    }

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<BaselineCache> baselines;
};

/** Geometric mean helper for per-workload normalized series. */
double geomean(const std::vector<double> &values);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_EXPERIMENT_HH
