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
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/once_map.hh"
#include "common/trace.hh"
#include "detect/oracle.hh"
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
 * so collectAccuracy only steers workload runs; withSolo only steers
 * scenario runs. The trace exports observe the measured run only
 * (never a reference run) and never enter a cache key.
 */
struct RunOptions
{
    /**
     * Attribute every prediction against the truth profile of the
     * scenario's Baseline run (the Fig. 10/11 tallies). Schemes that
     * prime from a profile (SHM_upper_bound) read that truth
     * regardless. The truth comes from soloCache's memo, so a grid
     * simulates each scenario's Baseline once.
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
    /** The memo the reference runs come from: the Baseline truth a
     *  measured run attributes against or primes from, and a
     *  scenario's solo references (not owned; must outlive the run,
     *  built with the run's GpuParams). Without one they are memoized
     *  within the single run or experiment only. Experiment::run
     *  always uses its own memo. */
    RunMemo *soloCache = nullptr;
};

/** Whether a run of @p scheme under @p options reads its scenario's
 *  Baseline truth profile: it attributes, or its scheme primes from
 *  the profile. */
bool readsTruth(schemes::Scheme scheme, const RunOptions &options);

/**
 * The one measured-run path: simulate @p scenario under @p scheme —
 * attributed against (and, for SHM_upper_bound, primed from) the
 * Baseline truth in options.soloCache when readsTruth(), with the
 * tracer attached when an export is requested — and return its
 * metrics; @p inspect sees the finished simulator. A single workload
 * or trace is the one-tenant scenario
 * (workload::singleTenantScenario). Every experiment entry point
 * (Experiment::run, RunMemo, runScenarioExperiment), the CLI's trace
 * replay and bench/figures go through here. Outside tests, examples
 * and micro_*, only measure() and RunMemo's truth runs build a
 * gpu::GpuSimulator.
 */
gpu::ScenarioMetrics measure(const gpu::GpuParams &gpu_params,
                             schemes::Scheme scheme,
                             const workload::ScenarioSpec &scenario,
                             const RunOptions &options = {},
                             const SimulatorHook &inspect = {});

/** measure() with @p scheme's MEE replaced by @p mee_params (an
 *  ablation variant of it); options.mdcPolicy still applies. */
gpu::ScenarioMetrics measure(const gpu::GpuParams &gpu_params,
                             schemes::Scheme scheme,
                             mee::MeeParams mee_params,
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

/** A memoized run: its metrics and, on a Baseline entry asked for
 *  its truth, the truth profile the run collected. */
struct MemoRun
{
    gpu::ScenarioMetrics metrics;
    std::optional<detect::TruthProfile> truth;
};

/**
 * The one memo of reference runs, shared by every cell of a grid: the
 * no-security Baseline each workload cell normalizes against, the
 * Baseline truth profile attributed and primed runs read, and the
 * solo run each scenario tenant is judged against. All are "the same
 * scenario under another scheme", so one OnceMap of MemoRun holds
 * them, keyed by scheme, workload::contentHash of the scenario (never
 * a name, so regenerated specs sharing one cannot alias), MDC policy,
 * whether the run attributes, and whether the entry carries the truth
 * and at which region and chunk sizes. A Baseline run is simulated
 * once per scenario for both roles when a cell needs the truth: that
 * entry carries it and its metrics serve as the normalization too. A
 * Baseline only used to normalize does not collect the profile. Each
 * key is simulated exactly once even under concurrent lookups;
 * returned references stay valid for the memo's lifetime.
 */
class RunMemo
{
  public:
    explicit RunMemo(const gpu::GpuParams &gpu_params);

    /** The Baseline run of @p spec alone (unattributed): the plain
     *  entry, or the truth-carrying one once shareTruth(spec). */
    const gpu::RunMetrics &metricsFor(const workload::WorkloadSpec &spec);

    /** The Baseline run of @p scenario with its truth profile, at
     *  the detector region and chunk sizes of @p measured (the MEE
     *  that will read it). */
    const MemoRun &truthFor(const workload::ScenarioSpec &scenario,
                            const mee::MeeParams &measured);

    /**
     * Serve every later metricsFor(@p spec) from truthFor(@p spec
     * alone, @p measured): a grid with a cell that reads @p spec's
     * truth declares it before any cell runs, so that the grid's other
     * cells normalize against the same Baseline run instead of a
     * second one. The metrics are the same bits either way.
     */
    void shareTruth(const workload::WorkloadSpec &spec,
                    const mee::MeeParams &measured);

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
    const MemoRun &lookup(schemes::Scheme scheme,
                          const workload::ScenarioSpec &scenario,
                          const RunOptions &options);

    gpu::GpuParams gpuConfig;
    OnceMap<MemoRun> entries;
    /** shareTruth's declarations: scenario content hash -> the MEE
     *  whose region and chunk sizes the shared truth uses. */
    std::mutex sharedMutex;
    std::map<std::uint64_t, mee::MeeParams> shared;
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

    /** Simulate @p scheme on @p spec (baseline simulated on demand;
     *  a cell that readsTruth() normalizes against the Baseline run
     *  that carries the truth); @p inspect sees the measured simulator
     *  once it has run. */
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
