/**
 * @file
 * Shared pieces of the perfbench driver: run configuration, the
 * output checks, latency statistics and the in-memory span recorder
 * used by traced runs.
 *
 * The driver links the shmgpu libraries and times calls into their
 * public functions from outside; it adds no instrumentation to the
 * simulator itself.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/**
 * CPU seconds consumed so far by the calling thread. Operation
 * latencies are measured in it, so time the thread spent descheduled
 * (other processes on a shared host) does not count; wall time still
 * sets every throughput.
 */
double threadCpuSeconds();

/** Wall and thread-CPU time since construction (one timed call). */
struct Lap
{
    Clock::time_point wallStart = Clock::now();
    double cpuStart = threadCpuSeconds();

    double wall() const { return secondsSince(wallStart); }
    double cpu() const { return threadCpuSeconds() - cpuStart; }
};

/**
 * How much slower than on a quiet host the calling thread's cache
 * accesses run now: the thread CPU time of a fixed walk of 250 000
 * dependent loads through a random cycle of 8192 cache lines (within
 * a core's L2 cache, but spread over 2048 pages), over that walk's
 * time on a quiet host. On a shared host, other guests' work on the
 * same cores slows such loads, and the memory-bound program with them,
 * by up to 1.5x for seconds at a time, while a compute-bound loop
 * stays within 5 %; a run's raw timings then follow the host more than
 * the program. Every operation and set-up repetition is preceded by
 * this probe, and its time divided by the reading. The walk is the
 * benchmark's own code, so no change to the program can move it.
 */
double hostSlowdown();

/** Resident MB of hostSlowdown()'s lines, which the first call
 *  allocates and the process keeps. */
double hostProbeMb();

/**
 * Passes a run of @p seconds makes when one pass nominally takes
 * @p nominal_pass_seconds: round(seconds / nominal), at least one.
 * The count depends only on the arguments, so every run of a workload
 * does the same work and its tail sits at the same percentile however
 * fast the host runs.
 */
int passesFor(double seconds, double nominal_pass_seconds);

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 25;

/**
 * Times a workload's set-up for setup_s. The kSetupReps repetitions
 * are split into rounds spread over the run, one before the first
 * pass and one after each pass: a vCPU of a shared host changes speed
 * from one second to the next, so repetitions made all at once would
 * measure one moment. Each repetition runs the set-up @p batch times
 * and records the mean, for set-ups that take only microseconds.
 */
class SetupTimer
{
  public:
    SetupTimer(std::function<void()> setup, int passes, int batch = 1);

    /** Time the next round of repetitions. */
    void round();

    /** Median seconds of one set-up. */
    double median() const;

  private:
    std::function<void()> fn;
    int roundsLeft;
    int batch;
    int repsLeft = kSetupReps;
    std::vector<double> samples;
};

/** The seed whose inputs are the EXPERIMENTS.md configuration. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * The RNG seed a generated input gets under workload seed @p seed:
 * @p original (the committed spec's own seed) at the default seed, a
 * SplitMix64 mix of both otherwise.
 */
std::uint64_t derivedSeed(std::uint64_t seed, std::uint64_t original);

/** One workload invocation, as parsed from the command line. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    /** Nominal measurement time; it sets the number of passes (see
     *  passesFor), never the host's speed. */
    double seconds = 10;
    bool trace = false;
    /** Worker threads for the sweep pool: min(nproc, 4). */
    unsigned jobs = 1;
    /** Tiny sizes for the smoke test. */
    bool smoke = false;
    /** Repository root: the scenario file, the paper reference data
     *  and the scratch space all sit at fixed places below it. */
    std::string repoRoot = ".";

    std::string benchDir() const { return repoRoot + "/perfbench"; }
    /** Scratch space for result caches, digests and traces. */
    std::string
    workDir() const
    {
        return repoRoot + "/.bench_build/perfbench-work";
    }
};

/** Output checks: each feeds `attempted`/`failed` and error_rate. */
class Checks
{
  public:
    /** Record one check; the first few failures are logged. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }

  private:
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/** Everything one workload run reports. */
struct Outcome
{
    /** Metric values by name; units come from the metric tables. */
    std::map<std::string, double> values;
    /** Extra facts printed beside the result (sample counts, the
     *  tail percentile, result digests). */
    shmgpu::json::Value info = shmgpu::json::Value::object();
};

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/**
 * Index (into the ascending order of @p n samples) of the highest
 * percentile that has at least ten samples beyond it: n - 11. Empty
 * when that index would not lie above the median (n < 22), where the
 * samples are too few for a tail.
 */
std::optional<std::size_t> tailIndex(std::size_t n);

/** A tail value with the facts needed to read it. */
struct Tail
{
    double value = 0;
    /** Share of samples at or below the value, in percent. */
    double percentile = 100;
    std::size_t samples = 0;
    /** False when too few samples (under 22) forced the maximum. */
    bool tenBeyond = false;
};

/** The tail of @p v by tailIndex, or its maximum below 22 samples. */
Tail tailOf(std::vector<double> v);

/**
 * Each operation's median over passes, for workloads whose passes run
 * the same @p per_pass operations in the same order: @p samples holds
 * the passes back to back.
 */
std::vector<double> perOperationMedians(const std::vector<double> &samples,
                                        std::size_t per_pass);

/** JSON object describing @p tail (for Outcome::info). */
shmgpu::json::Value tailInfo(const Tail &tail);

/**
 * Fill ops_per_s, op_ms_p50 and op_ms_tail from a run's operations:
 * @p cpu_seconds[i] is operation i's thread CPU time, measured right
 * after hostSlowdown() read @p slowdown[i]; the passes run the same
 * @p per_pass operations in the same order, back to back, in @p wall
 * seconds. Each operation's latency is its median over the passes of
 * CPU time over slowdown. Throughput divides the wall time by the
 * slowdown averaged the same way (total raw over total adjusted time).
 * The unadjusted values go to info.raw.
 */
void fillOpMetrics(const std::vector<double> &cpu_seconds,
                   const std::vector<double> &slowdown,
                   std::size_t per_pass, double wall, Outcome &out);

/** Least-squares slope of @p y over @p x (0 for degenerate input). */
double slope(const std::vector<double> &x, const std::vector<double> &y);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/** FNV-1a 64 of @p text, as 16 hex digits (result digests). */
std::string digest(const std::string &text);

/**
 * Check that this run's simulated results (@p results_digest) match
 * every earlier run of the same workload, seed and size in this work
 * directory; the first run records the digest.
 */
void checkAcrossRuns(const RunConfig &config,
                     const std::string &results_digest, Checks &checks);

/**
 * Spans recorded by traced runs: name, start, end, the span that
 * caused it and the recording thread. Spans stay in memory and are
 * written out once, as Chrome trace_event JSON, when the run ends.
 * A disabled recorder records nothing.
 */
class SpanRecorder
{
  public:
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

    explicit SpanRecorder(bool enabled) : on(enabled) {}

    /** Open a span; returns its id (kNoParent when disabled). */
    std::uint32_t open(const char *name,
                       std::uint32_t parent = kNoParent);
    /** Close span @p id (no-op for kNoParent). */
    void close(std::uint32_t id);

    std::size_t size() const;

    /**
     * Write every span as a Chrome trace "X" event plus a per-name
     * summary (count, total and self seconds, where self time is the
     * span minus the union of its children's intervals). Spans past
     * @p max_events are summarized but not written one by one.
     */
    void writeJson(const std::string &path,
                   const shmgpu::json::Value &config,
                   std::size_t max_events = 50000) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::uint32_t parent;
        std::uint32_t tid;
    };

    bool on;
    Clock::time_point epoch = Clock::now();
    mutable std::mutex mutex;
    std::vector<Span> spans;
};

/** RAII span on a recorder (free when the recorder is disabled). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::uint32_t parent = SpanRecorder::kNoParent)
        : rec(recorder), spanId(recorder.open(name, parent))
    {
    }
    ~ScopedSpan() { rec.close(spanId); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return spanId; }

  private:
    SpanRecorder &rec;
    std::uint32_t spanId;
};

/** @{ The three workloads; each returns its metrics for @p config
 *  (end-to-end when untraced, per-layer when traced). */
Outcome runPaperGrid(const RunConfig &config, Checks &checks,
                     SpanRecorder &spans);
Outcome runSecureRw(const RunConfig &config, Checks &checks,
                    SpanRecorder &spans);
Outcome runTenantMix(const RunConfig &config, Checks &checks,
                     SpanRecorder &spans);
/** @} */

/**
 * The metric names with their units, in output order: BENCHMARK.json's
 * "per_layer" list when @p traced, else its "end_to_end" list. Read
 * from the file under @p repo_root, so the list exists only there.
 */
std::vector<std::pair<std::string, std::string>>
metricTable(const std::string &repo_root, bool traced);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
