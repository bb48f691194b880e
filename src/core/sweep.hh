/**
 * @file
 * core::SweepRunner — the parallel (scheme x workload) grid executor.
 *
 * Every paper figure is a grid of independent Experiment cells; this
 * runner executes them on a pool of worker threads while guaranteeing
 * *bit-identical* results at any job count:
 *
 *  - each cell builds its own GpuSimulator whose RNG streams are
 *    seeded only from the workload spec, never from thread identity
 *    or scheduling order;
 *  - all workers share one BaselineCache, so each unique workload's
 *    no-security baseline is simulated exactly once (call_once) and
 *    every cell normalizes against the same bits;
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

#include <atomic>
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

/** One grid cell: simulate @p scheme on @p spec. */
struct SweepCell
{
    schemes::Scheme scheme = schemes::Scheme::Baseline;
    /** Not owned; must outlive the sweep. */
    const workload::WorkloadSpec *spec = nullptr;
};

/**
 * Thrown by SweepRunner::run when the cancel token fires. Carries the
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

/** How a sweep's cells were satisfied (an output of runCells). */
struct SweepTally
{
    /** Cells actually simulated this run. */
    std::size_t simulated = 0;
    /** Cells loaded from the ResultCache instead of simulated. */
    std::size_t cached = 0;
};

/** Options for one sweep. */
struct SweepOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 1;
    /** Per-cell run options (accuracy collection etc.). */
    RunOptions run;
    /**
     * Optional cooperative cancel token. Setting it true stops
     * workers at the next cell boundary and makes run() throw
     * SweepCancelled (in-flight cells finish first).
     */
    std::shared_ptr<std::atomic<bool>> cancel;
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
     * simulated vs cache-loaded cells when run()/runCells() returns
     * or throws SweepCancelled.
     */
    SweepTally *tally = nullptr;
    /**
     * Testing/CI knob: fire the cancel path after this many cells
     * have completed (0 = never). Gives a deterministic way to
     * interrupt a sweep mid-grid and exercise resume.
     */
    std::size_t cancelAfter = 0;
};

/**
 * The worker pool behind every grid (SweepRunner::runCells and
 * runScenarioCells): run @p body(i) for each cell index i < @p n on
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
 * the caller sees the same error at any job count. options.cancel and
 * options.cancelAfter stop workers at the next cell boundary (cells in
 * flight finish); the return value is then true. options.run and
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

    const gpu::GpuParams &gpuParams() const
    {
        return baselines->gpuParams();
    }
    const std::shared_ptr<BaselineCache> &baselineCache() const
    {
        return baselines;
    }

  protected:
    /** Seam for tests (exception injection); default delegates to
     *  Experiment::run. */
    virtual ExperimentResult runCell(const Experiment &experiment,
                                     const SweepCell &cell,
                                     const RunOptions &options) const;

  private:
    gpu::EnergyParams energyConfig;
    std::shared_ptr<BaselineCache> baselines;
};

/**
 * Run a policy x scheme x workload grid: for each replacement policy,
 * run the full (schemes x workloads) grid with the L2 banks *and* the
 * metadata caches switched to that policy. Results are policy-major
 * (all cells of policies[0] first), each annotated with its policy
 * names for the JSON sink.
 *
 * A fresh SweepRunner (and thus BaselineCache) is built per policy:
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

/** One RunMetrics as a JSON object (fixed member order; shared by the
 *  sweep and scenario sinks — exact round-trip with
 *  runMetricsFromJson). */
json::Value runMetricsToJson(const gpu::RunMetrics &metrics);

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
