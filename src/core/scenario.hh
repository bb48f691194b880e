/**
 * @file
 * core-level multi-tenant scenario experiments.
 *
 * Where core::Experiment answers "what does scheme S cost on workload
 * W", this layer answers the sharing question the paper leaves open:
 * what happens to detector accuracy, metadata-cache locality and
 * per-tenant throughput when N mutually-distrusting tenants share one
 * GPU. runScenarioExperiment() measures the shared run (core::measure),
 * then (per distinct tenant workload) looks up the same workload run
 * *solo* on the whole GPU under the same scheme and key seed — the
 * interference-free reference, memoized in a RunMemo like the
 * workload baselines — and reports the deltas: ANTT-style slowdown,
 * read-only/streaming accuracy loss, and MDC hit-rate loss. The
 * shared run and each solo attribute against the truth profile of
 * their scenario's Baseline run, kept in the same memo, so a grid
 * simulates one Baseline per scenario whatever its schemes.
 *
 * Scenario grids run on core::SweepRunner like workload grids, through
 * the same pool and persistence machinery: scenarioCellKey
 * (core/result_cache.hh) fingerprints the full configuration plus
 * workload::contentHash(scenario), and ResultCache::load/store
 * round-trip results byte-exactly through the JSON sink, so quantum
 * sweeps are incremental and resumable exactly like workload sweeps.
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
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "workload/scenario.hh"

namespace shmgpu::core
{

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

/** @{ The scenario-role names of RunMemo and RunOptions, which
 *  perfbench uses. */
using ScenarioSoloCache = RunMemo;
using ScenarioRunOptions = RunOptions;
/** @} */

/**
 * Fatal unless @p scheme can run @p scenario on @p gpu_params: the
 * scenario must be valid (workload::validateScenario), and a
 * partitioned split needs local metadata addressing and at least one
 * SM and one memory partition per tenant. Grids run it on every cell
 * before any simulates.
 */
void checkScenario(const gpu::GpuParams &gpu_params, schemes::Scheme scheme,
                   const workload::ScenarioSpec &scenario);

/**
 * Simulate @p scenario under @p scheme and attribute the result per
 * tenant (see file comment); @p inspect sees the shared run's
 * simulator once it has run. Fatal on invalid scenarios.
 */
ScenarioExperimentResult
runScenarioExperiment(const gpu::GpuParams &gpu_params,
                      schemes::Scheme scheme,
                      const workload::ScenarioSpec &scenario,
                      const RunOptions &options = {},
                      const SimulatorHook &inspect = {});

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

} // namespace shmgpu::core

#endif // SHMGPU_CORE_SCENARIO_HH
