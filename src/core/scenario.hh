/**
 * @file
 * core-level multi-tenant scenario experiments.
 *
 * Where core::Experiment answers "what does scheme S cost on workload
 * W", this layer answers the sharing question the paper leaves open:
 * what happens to detector accuracy, metadata-cache locality and
 * per-tenant throughput when N mutually-distrusting tenants share one
 * GPU. runScenarioExperiment() measures the shared run (core::measure),
 * then (per distinct tenant workload) runs the same workload
 * *solo* on the whole GPU under the same scheme and key seed — the
 * interference-free reference — and reports the deltas: ANTT-style
 * slowdown, read-only/streaming accuracy loss, and MDC hit-rate loss.
 *
 * Scenario cells flow through the same persistence machinery as sweep
 * cells: scenarioCellKey (core/result_cache.hh) fingerprints the full
 * configuration plus workload::contentHash(scenario), and
 * load/storeScenarioCell round-trip results byte-exactly through the
 * JSON sink, so quantum sweeps are incremental and resumable exactly
 * like workload sweeps.
 *
 * Determinism contract: a scenario cell's bytes depend only on its
 * fingerprint inputs — never on --jobs (slot-indexed results, solo
 * references memoized by content hash with call_once) — which is what
 * lets CI byte-compare scenario runs across parallelism settings.
 */

#ifndef SHMGPU_CORE_SCENARIO_HH
#define SHMGPU_CORE_SCENARIO_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/once_map.hh"
#include "common/trace.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "workload/scenario.hh"

namespace shmgpu::core
{

class ResultCache;

/** One tenant's share of a scenario run plus its solo reference. */
struct ScenarioTenantResult
{
    /** The tenant's attributed metrics from the shared run. */
    gpu::TenantRunMetrics shared;

    /** @{ The same workload run alone on the whole GPU (same scheme,
     *  key seed and MDC policy): the interference-free reference.
     *  Zero when the experiment ran without solo passes. */
    double soloIpc = 0;
    double soloMdcHitRate = 0;
    double soloRoAccuracy = 0;
    double soloStrAccuracy = 0;
    /** @} */

    /** soloIpc over the tenant's turnaround IPC under sharing (>= ~1;
     *  1.0 = no interference — the ANTT numerator). */
    double slowdown = 0;
    /** @{ Interference deltas, solo minus shared: positive values
     *  mean sharing degraded the tenant. */
    double roAccuracyDelta = 0;
    double strAccuracyDelta = 0;
    double mdcHitRateDelta = 0;
    /** @} */
};

/** A finished scenario experiment. */
struct ScenarioExperimentResult
{
    std::string scenario;
    std::string scheme;
    std::string sharePolicy;
    Cycle quantumCycles = 0;
    bool flushMdcOnSwitch = false;

    /** Whole-GPU totals plus the raw per-tenant attribution. */
    gpu::ScenarioMetrics metrics;
    /** Per-tenant results in scenario order (parallel to
     *  metrics.tenants, augmented with the solo references). */
    std::vector<ScenarioTenantResult> tenants;
    /** Arithmetic mean of the tenant slowdowns (the ANTT figure);
     *  zero without solo passes. */
    double meanSlowdown = 0;
};

/**
 * Memoized solo references shared across scenario cells: one
 * whole-GPU single-tenant scenario experiment per distinct (scheme,
 * workload content hash, key seed, MDC policy), simulated exactly
 * once even under concurrent lookups (a OnceMap, as BaselineCache).
 * A quantum sweep over one scenario re-uses its tenants' solo runs
 * across every cell.
 */
class ScenarioSoloCache
{
  public:
    explicit ScenarioSoloCache(const gpu::GpuParams &gpu_params);

    /** The solo reference for @p tenant's workload; simulated on
     *  first use. Valid for the cache's lifetime. */
    const gpu::TenantRunMetrics &
    soloFor(schemes::Scheme scheme, const workload::WorkloadSpec &spec,
            std::uint64_t key_seed, mem::PolicyKind mdc_policy);

    /** Number of distinct solo references simulated so far. */
    std::size_t size() const { return entries.size(); }

    const gpu::GpuParams &gpuParams() const { return gpuConfig; }

  private:
    gpu::GpuParams gpuConfig;
    OnceMap<gpu::TenantRunMetrics> entries;
};

/** Options for one scenario experiment. */
struct ScenarioRunOptions
{
    /** Run each distinct tenant workload solo for the interference
     *  deltas. Off leaves the solo/delta fields zero (cheaper; used
     *  by timing benchmarks). */
    bool withSolo = true;

    /** Replacement policy for the MEE metadata caches (matches
     *  RunOptions::mdcPolicy). */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;

    /** Optional shared solo-reference store (not owned; must outlive
     *  the call). Without one, solo runs are memoized only within the
     *  single experiment. */
    ScenarioSoloCache *soloCache = nullptr;

    /** @{ Observation-only trace exports (never in the cache key):
     *  Chrome JSON / text dump of the *shared* run, with every event
     *  stamped with its owning tenant. */
    std::string tracePath;
    std::string traceTextPath;
    trace::TraceParams traceParams;
    /** @} */
};

/**
 * Simulate @p scenario under @p scheme and attribute the result per
 * tenant (see file comment); @p inspect sees the shared run's
 * simulator once it has run. Fatal on invalid scenarios.
 */
ScenarioExperimentResult
runScenarioExperiment(const gpu::GpuParams &gpu_params,
                      schemes::Scheme scheme,
                      const workload::ScenarioSpec &scenario,
                      const ScenarioRunOptions &options = {},
                      const SimulatorHook &inspect = {});

/** One scenario grid cell. */
struct ScenarioCell
{
    schemes::Scheme scheme = schemes::Scheme::Shm;
    /** Not owned; must outlive the sweep. */
    const workload::ScenarioSpec *scenario = nullptr;
};

/** Options for a scenario grid. */
struct ScenarioSweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 1;
    /** Per-cell run options (a shared ScenarioSoloCache is installed
     *  automatically when run.soloCache is null). */
    ScenarioRunOptions run;
    /** Optional persistent cell store (not owned); hits load instead
     *  of simulating, fresh cells are stored on completion. */
    ResultCache *cache = nullptr;
    /** Optional tally sink (not owned). */
    SweepTally *tally = nullptr;
};

/**
 * Run a list of scenario cells on the sweep worker pool
 * (runCellPool). Results are in cell order regardless of the job
 * count, and bit-identical for any --jobs value. The first cell
 * failure is rethrown after the pool drains.
 */
std::vector<ScenarioExperimentResult>
runScenarioCells(const gpu::GpuParams &gpu_params,
                 const std::vector<ScenarioCell> &cells,
                 const ScenarioSweepOptions &options = {});

/** One scenario result as JSON (fixed member order; exact round-trip
 *  with scenarioResultFromJson). */
json::Value scenarioResultToJson(const ScenarioExperimentResult &r);

/** Rebuild a result from scenarioResultToJson output (exact inverse;
 *  fatal on missing members). */
ScenarioExperimentResult scenarioResultFromJson(const json::Value &v);

/**
 * The scenario results document: {"schemaVersion", "kind",
 * "results": [...]} plus per-scheme mean-slowdown summaries.
 * Deterministic: a pure function of the result list.
 */
json::Value
scenarioSweepToJson(const std::vector<ScenarioExperimentResult> &results);

/** @{ Scenario cells in a ResultCache (key from scenarioCellKey);
 *  same miss-never-error and atomic-publish semantics as the sweep
 *  cell load/store. */
bool loadScenarioCell(const ResultCache &cache, std::uint64_t key,
                      ScenarioExperimentResult *out);
void storeScenarioCell(const ResultCache &cache, std::uint64_t key,
                       const ScenarioExperimentResult &result);
/** @} */

} // namespace shmgpu::core

#endif // SHMGPU_CORE_SCENARIO_HH
