/**
 * @file
 * core::SweepRunner — the parallel (scheme x workload) grid executor.
 *
 * Every paper figure is a grid of independent Experiment cells, and a
 * scenario sweep a grid of scenario cells; this runner executes either
 * kind on one pool of worker threads, through one cache-or-simulate
 * body, while guaranteeing *bit-identical* results at any job count:
 *
 *  - each cell builds its own GpuSimulator whose RNG streams are
 *    seeded only from the workload spec, never from thread identity
 *    or scheduling order;
 *  - all workers share one RunMemo, so each unique workload's
 *    no-security baseline, each scenario's Baseline truth profile
 *    and each tenant's solo reference is simulated exactly once
 *    (call_once) and every cell compares against the same bits. A
 *    workload whose truth some cell reads (--accuracy,
 *    SHM_upper_bound) has one Baseline run, which carries the truth
 *    and serves every cell's normalization;
 *  - results land in a pre-sized vector slot per cell, so the output
 *    order is the grid order regardless of completion order.
 *
 * The structured results sink (writeSweepJson) is what the figure
 * benches and the golden-metrics test tier consume; its byte output
 * is a pure function of the grid, which is how the "--jobs 1 ==
 * --jobs N" acceptance test can diff whole files.
 */

#ifndef SHMGPU_CORE_SWEEP_HH
#define SHMGPU_CORE_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"

namespace shmgpu::core
{

class ResultCache;
struct ScenarioExperimentResult;

/** One grid cell: simulate @p scheme on @p spec. */
struct SweepCell
{
    schemes::Scheme scheme = schemes::Scheme::Baseline;
    /** Not owned; must outlive the sweep. */
    const workload::WorkloadSpec *spec = nullptr;
};

/** One scenario grid cell (core/scenario.hh). */
struct ScenarioCell
{
    schemes::Scheme scheme = schemes::Scheme::Shm;
    /** Not owned; must outlive the sweep. */
    const workload::ScenarioSpec *scenario = nullptr;
};

/**
 * Thrown by SweepRunner::run when options.cancelAfter fires. Carries the
 * cells that *did* finish (grid order, gaps removed) so the caller can
 * report a partial, resumable sweep instead of discarding paid-for
 * work — with a ResultCache attached those cells are already on disk.
 */
class SweepCancelled : public std::runtime_error
{
  public:
    SweepCancelled() : std::runtime_error("sweep cancelled") {}

    /** Completed cells in grid order (unfinished cells skipped). */
    std::vector<ExperimentResult> partial;
    /** Total cells in the cancelled grid. */
    std::size_t totalCells = 0;
};

/** How a sweep's cells were satisfied (an output of a grid run). */
struct SweepTally
{
    /** Cells actually simulated this run. */
    std::size_t simulated = 0;
    /** Cells loaded from the ResultCache instead of simulated. */
    std::size_t cached = 0;
};

/** Options for one sweep, of either grid kind. */
struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 1;
    /** Per-cell run options (accuracy collection etc.). A scenario
     *  grid without a soloCache takes its truths and solo references
     *  from the runner's memo; a workload grid always does. */
    RunOptions run;
    /**
     * When non-empty, each workload cell exports its trace to
     * <traceDir>/<workload>_<scheme>.trace.json, where one tracePath
     * would be overwritten by every cell. Workload grids only.
     */
    std::string traceDir;
    /**
     * Optional persistent cell store (not owned; must outlive the
     * sweep). When set, each cell's key is looked up before
     * simulating — a hit is returned as-is (bit-identical to a fresh
     * run by the cache's round-trip contract) — and every freshly
     * simulated cell is written back the moment it finishes, which is
     * what makes interrupted sweeps resumable.
     */
    ResultCache *cache = nullptr;
    /**
     * Optional tally sink (not owned); filled with the number of
     * simulated vs cache-loaded cells when a grid run returns or
     * throws SweepCancelled.
     */
    SweepTally *tally = nullptr;
    /**
     * Stop workers at the next cell boundary once this many cells
     * have completed (0 = never) and make run() throw SweepCancelled
     * (in-flight cells finish first). A deterministic way to interrupt
     * a sweep mid-grid and exercise resume. Workload grids only.
     */
    std::size_t cancelAfter = 0;
};

/**
 * The worker pool behind every grid (both SweepRunner grid kinds and
 * the figures driver): run @p body(i) for each cell index i < @p n on
 * options.jobs threads. The body fills slot i of the caller's
 * pre-sized result vector, so results land in cell order whatever the
 * completion order, and returns true when the cell was loaded from a
 * cache rather than simulated (counted into options.tally).
 *
 * Cells are claimed longest-first: in descending @p cost (one static
 * estimate per cell, see estimateCellCost), ties in index order, so
 * the longest cells start early instead of forming the pool's tail.
 * An empty @p cost claims cells in index order.
 *
 * The first failure stops workers from claiming further cells; once
 * the pool drains, the failure with the lowest index is rethrown, so
 * the caller sees the same error at any job count. options.cancelAfter
 * stops workers at the next cell boundary (cells in flight finish);
 * the return value is then true. options.run and
 * options.cache are the body's business and are not read here.
 */
bool runCellPool(std::size_t n, const SweepOptions &options,
                 const std::function<bool(std::size_t)> &body,
                 const std::vector<double> &cost = {});

/**
 * Static estimate of the simulation cost of @p spec, for longest-first
 * dispatch: the sum over its kernels of
 * min(iterationsPerSm x sum of stream probabilities,
 *     max_cycles_per_kernel / (computePerMem + 1)),
 * i.e. memory instructions per SM, capped by what the cycle budget
 * can issue. Only the order it induces matters.
 */
double estimateCellCost(const workload::WorkloadSpec &spec,
                        Cycle max_cycles_per_kernel);

/** Thread-pool executor for experiment grids. */
class SweepRunner
{
  public:
    explicit SweepRunner(const gpu::GpuParams &gpu_params = {},
                         const gpu::EnergyParams &energy_params = {});
    virtual ~SweepRunner() = default;

    /**
     * Run the full @p schemes x @p workloads grid. Results are in
     * workload-major order (all schemes of workloads[0] first),
     * independent of the job count.
     *
     * The first cell failure (by grid order) is rethrown after the
     * pool drains; remaining unstarted cells are abandoned.
     */
    std::vector<ExperimentResult>
    run(const std::vector<schemes::Scheme> &schemes,
        const std::vector<const workload::WorkloadSpec *> &workloads,
        const SweepOptions &options = {}) const;

    /** Run an explicit cell list (ragged grids, ablations). */
    std::vector<ExperimentResult>
    runCells(const std::vector<SweepCell> &cells,
             const SweepOptions &options = {}) const;

    /**
     * Run a scenario grid through the same pool and cache-or-simulate
     * body: results in cell order, bit-identical for any job count.
     * Every cell's scenario is checked (core::checkScenario) before
     * any cell simulates. options.cancelAfter and options.traceDir
     * must be unset.
     */
    std::vector<ScenarioExperimentResult>
    run(const std::vector<ScenarioCell> &cells,
        const SweepOptions &options = {}) const;

    const gpu::GpuParams &gpuParams() const { return memo->gpuParams(); }
    /** The memo of every reference run (baselines and solos). */
    const std::shared_ptr<RunMemo> &baselineCache() const { return memo; }

  protected:
    /** Seam for tests (exception injection); default delegates to
     *  Experiment::run. */
    virtual ExperimentResult runCell(const Experiment &experiment,
                                     const SweepCell &cell,
                                     const RunOptions &options) const;

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<RunMemo> memo;
};

/**
 * Run a policy x scheme x workload grid: for each replacement policy,
 * run the full (schemes x workloads) grid with the L2 banks *and* the
 * metadata caches switched to that policy. Results are policy-major
 * (all cells of policies[0] first), each annotated with its policy
 * names for the JSON sink.
 *
 * A fresh SweepRunner (and thus RunMemo) is built per policy:
 * the L2 policy changes the no-security baseline IPC, so cells must
 * normalize against a baseline running under the *same* policy or the
 * overhead numbers would mix machines.
 */
std::vector<ExperimentResult>
runPolicyGrid(const gpu::GpuParams &base,
              const std::vector<mem::PolicyKind> &policies,
              const std::vector<schemes::Scheme> &schemes,
              const std::vector<const workload::WorkloadSpec *> &workloads,
              const SweepOptions &options = {});

/** One result as a JSON object (all metrics, fixed member order). */
json::Value resultToJson(const ExperimentResult &result);

/**
 * Rebuild an ExperimentResult from resultToJson output. The inverse
 * is exact: resultToJson(resultFromJson(v)) serializes to the same
 * bytes as v (numbers are shortest-round-trip both ways). Fatal on
 * missing members — cell files are validated by ResultCache::load
 * before they reach this.
 */
ExperimentResult resultFromJson(const json::Value &v);

/**
 * The full results document: {"schemaVersion", "results": [...]}
 * plus per-scheme geomean summaries. Deterministic: depends only on
 * the result list, never on job count or timing.
 */
json::Value sweepToJson(const std::vector<ExperimentResult> &results);

/** Serialize sweepToJson with a trailing newline (the --out sink). */
void writeSweepJson(std::ostream &os,
                    const std::vector<ExperimentResult> &results);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_SWEEP_HH
