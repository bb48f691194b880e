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
 * Experiment itself holds no per-run state beyond the shared RunMemo,
 * so one instance may be used from many threads at once
 * (core::SweepRunner does exactly that), and several instances
 * constructed with the same memo share baseline simulations.
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

class RunMemo;

/**
 * How one measured run is set up and observed: a workload cell
 * (Experiment::run) or a scenario (runScenarioExperiment). Scenario
 * runs always attribute, since detector accuracy is their headline,
 * so collectAccuracy only steers workload runs; withSolo and
 * soloCache only steer scenario runs. The trace exports observe the
 * measured run only (never a truth pass or a reference run) and never
 * enter a cache key.
 */
struct RunOptions
{
    /**
     * Run a Baseline truth pass over the same scenario first and
     * attribute every prediction against it (the Fig. 10/11 tallies).
     * Schemes that prime from a profile (SHM_upper_bound) run the
     * pass regardless.
     */
    bool collectAccuracy = false;
    /**
     * Replacement policy of the measured run's metadata caches
     * (`mee.mdc_policy` / `--policy`). Carried here rather than in
     * GpuParams because the scheme registry owns MeeParams
     * construction; reference runs without metadata caches ignore it.
     */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
    /** @{ Chrome trace_event JSON / line-per-event text exports; an
     *  empty path skips that format. A scenario's events carry their
     *  owning tenant. */
    std::string tracePath;
    std::string traceTextPath;
    trace::TraceParams traceParams;
    /** @} */
    /** Run each distinct tenant workload solo for the interference
     *  deltas. Off leaves the solo fields zero (cheaper). */
    bool withSolo = true;
    /** The memo the solo references come from (not owned; must
     *  outlive the run). Without one they are memoized within the
     *  single experiment only. */
    RunMemo *soloCache = nullptr;
};

/**
 * The one measured-run path: simulate @p scenario under @p scheme —
 * after the Baseline truth pass when attribution or priming needs it,
 * with the tracer attached when an export is requested — and return
 * its metrics; @p inspect sees the finished simulator. A single
 * workload or trace is the one-tenant scenario
 * (workload::singleTenantScenario). Every experiment entry point
 * (Experiment::run, RunMemo, runScenarioExperiment) and the CLI's
 * trace replay go through here.
 */
gpu::ScenarioMetrics measure(const gpu::GpuParams &gpu_params,
                             schemes::Scheme scheme,
                             const workload::ScenarioSpec &scenario,
                             const RunOptions &options = {},
                             const SimulatorHook &inspect = {});

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
 * The one memo of measured reference runs, shared by every cell of a
 * grid: the no-security Baseline each workload cell normalizes
 * against, and the solo run each scenario tenant is judged against.
 * Both are "the same measured run under another scheme", so one
 * OnceMap of gpu::ScenarioMetrics holds them, keyed by scheme,
 * workload::contentHash of the scenario (never a name, so regenerated
 * specs sharing one cannot alias), MDC policy and whether the run
 * attributes. Each key is simulated exactly once even under
 * concurrent lookups; returned references stay valid for the memo's
 * lifetime.
 */
class RunMemo
{
  public:
    explicit RunMemo(const gpu::GpuParams &gpu_params);

    /** The Baseline run of @p spec alone (unattributed). */
    const gpu::RunMetrics &metricsFor(const workload::WorkloadSpec &spec);

    /** The solo reference of a tenant running @p spec: the same
     *  workload alone on the whole GPU under @p scheme, @p key_seed
     *  and @p mdc_policy, attributed. */
    const gpu::TenantRunMetrics &
    soloFor(schemes::Scheme scheme, const workload::WorkloadSpec &spec,
            std::uint64_t key_seed, mem::PolicyKind mdc_policy);

    /** Number of distinct runs simulated so far. */
    std::size_t size() const { return entries.size(); }

    const gpu::GpuParams &gpuParams() const { return gpuConfig; }

  private:
    const gpu::ScenarioMetrics &lookup(schemes::Scheme scheme,
                                       const workload::ScenarioSpec &scenario,
                                       const RunOptions &options);

    gpu::GpuParams gpuConfig;
    OnceMap<gpu::ScenarioMetrics> entries;
};

/** Runs experiments against a (possibly shared) run memo. */
class Experiment
{
  public:
    explicit Experiment(const gpu::GpuParams &gpu_params = {},
                        const gpu::EnergyParams &energy_params = {});

    /** Share @p memo (GPU parameters come from the memo). */
    Experiment(std::shared_ptr<RunMemo> memo,
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
    const std::shared_ptr<RunMemo> &baselineCache() const
    {
        return baselines;
    }

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<RunMemo> baselines;
};

/** Geometric mean helper for per-workload normalized series. */
double geomean(const std::vector<double> &values);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_EXPERIMENT_HH
