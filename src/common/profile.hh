/**
 * @file
 * Lightweight phase timers for the simulation hot path.
 *
 * Three coarse phases cover a cell run: simulator construction
 * (Init), the per-kernel cycle loop (KernelLoop), and the MEE
 * metadata path inside it (MetaPath, a sub-interval of KernelLoop).
 * Timing is off by default; `shmgpu run --profile` enables it. When
 * disabled, the only hot-path cost is one relaxed atomic load per
 * instrumented scope.
 *
 * Accumulators are process-global and atomic, so profiled sweeps with
 * --jobs > 1 aggregate across workers (wall-clock sums then exceed
 * elapsed time; interpret per-phase shares, not absolute seconds).
 */

#ifndef SHMGPU_COMMON_PROFILE_HH
#define SHMGPU_COMMON_PROFILE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>

namespace shmgpu::profile
{

/** Instrumented phases of one simulation cell. */
enum class Phase : std::uint8_t
{
    Init,       //!< GpuSimulator construction (layouts, partitions)
    KernelLoop, //!< the cycle-by-cycle kernel loop
    MetaPath,   //!< MEE metadata work (subset of KernelLoop time)
    NumPhases
};

/**
 * Event counters alongside the phase timers. The event-driven kernel
 * loop reports how many simulated cycles it advanced and how many of
 * those it jumped over without enumerating — the profile's measure of
 * how much per-cycle polling the calendar removed.
 */
enum class Counter : std::uint8_t
{
    KernelCycles,  //!< simulated cycles advanced by the kernel loop
    CyclesSkipped, //!< cycles the calendar jumped without events
    NumCounters
};

/** Global enable flag (relaxed; checked once per instrumented scope). */
bool enabled();
void setEnabled(bool on);

/** Zero all phase accumulators. */
void reset();

/** Accumulated nanoseconds for @p phase. */
std::uint64_t nanos(Phase phase);

/** Add @p ns to @p phase (used by ScopedTimer; also handy in tests). */
void add(Phase phase, std::uint64_t ns);

/** Accumulated value of @p counter. */
std::uint64_t count(Counter counter);

/** Add @p n to @p counter (callers gate on enabled() themselves). */
void addCount(Counter counter, std::uint64_t n);

/** Human-readable per-phase table (seconds and shares). */
void report(std::ostream &os);

/** RAII timer: accumulates the scope's wall time when profiling is on. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Phase timed_phase)
        : phase(timed_phase), active(enabled())
    {
        if (active)
            start = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (active) {
            auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
            add(phase, static_cast<std::uint64_t>(ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Phase phase;
    bool active;
    std::chrono::steady_clock::time_point start;
};

} // namespace shmgpu::profile

#endif // SHMGPU_COMMON_PROFILE_HH
