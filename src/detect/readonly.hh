/**
 * @file
 * Hardware read-only region detector (Section IV-B of the paper).
 *
 * A tagless per-partition bit vector indexed by region id (16 KB
 * regions by default). 1 = read-only. Entries start at 0; the command
 * processor sets them when CUDA memcpy writes input regions at context
 * initialization. Any kernel store (L2 write-back) or later host copy
 * clears the bit — permanently, unless the InputReadOnlyReset API
 * re-arms it. Aliasing (two regions sharing one bit) can only turn
 * read-only into not-read-only, so it costs performance, never
 * security.
 *
 * Each entry carries provenance (never-set vs. cleared-by-which-
 * region) so the evaluation can break mispredictions into the paper's
 * Fig. 10 classes (MP_Init vs. MP_Aliasing). Provenance is
 * simulator-side instrumentation, not modeled hardware state.
 */

#ifndef SHMGPU_DETECT_READONLY_HH
#define SHMGPU_DETECT_READONLY_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace shmgpu::detect
{

/** Static configuration of a ReadOnlyDetector. */
struct ReadOnlyDetectorParams
{
    std::uint32_t entries = 1024;
    std::uint64_t regionBytes = 16 * 1024;

    bool operator==(const ReadOnlyDetectorParams &) const = default;
};

/** Why a predictor entry currently reads 0 (not-read-only). */
enum class NotReadOnlyCause : std::uint8_t
{
    NeverSet,      //!< default initialization (MP_Init when wrong)
    WrittenSelf,   //!< a write to the same region cleared it
    WrittenAlias   //!< a write to an aliasing region cleared it
};

/** Per-partition read-only region predictor. */
class ReadOnlyDetector
{
  public:
    explicit ReadOnlyDetector(const ReadOnlyDetectorParams &params);

    /** Region id of a partition-local address. */
    std::uint64_t regionOf(LocalAddr addr) const
    {
        return addr / config.regionBytes;
    }

    /** Current prediction for @p addr. */
    bool isReadOnly(LocalAddr addr) const;

    /**
     * Command-processor path: a host-to-device copy initialized
     * [base, base+bytes); mark the covered regions read-only.
     */
    void markInputRegion(LocalAddr base, std::uint64_t bytes);

    /**
     * Kernel write-back (or mid-context host copy) to @p addr.
     * @return true when this cleared a set bit — the caller must then
     *         propagate the shared counter into per-block counters.
     */
    bool recordWrite(LocalAddr addr);

    /**
     * InputReadOnlyReset(address range): re-arm the covered regions as
     * read-only. (The shared-counter raise is the caller's job: it
     * owns the counter scan.)
     */
    void resetReadOnly(LocalAddr base, std::uint64_t bytes);

    /**
     * Context switch: drop all predictor state back to power-on
     * defaults (every entry 0 / never-set). The incoming tenant's
     * input regions are re-armed afterwards via markInputRegion —
     * the InputReadOnlyReset path — so one tenant's writes can never
     * leak not-read-only provenance into another's attribution.
     */
    void reset();

    /**
     * Programming-model hint (e.g. an OpenCL CL_MEM_READ_ONLY
     * buffer): mark the covered regions read-only. Equivalent to an
     * initializing copy; it exists because hinted buffers need no
     * observed memcpy to be recognized. Writes (own or aliasing)
     * still clear the bit — a tagless vector cannot do better safely.
     */
    void pinReadOnly(LocalAddr base, std::uint64_t bytes);

    /** Provenance of a 0-entry, for misprediction attribution. */
    NotReadOnlyCause causeFor(LocalAddr addr) const;

    /** Storage cost in bits (Table IX accounting). */
    std::uint64_t hardwareBits() const { return config.entries; }

    const ReadOnlyDetectorParams &params() const { return config; }

  private:
    struct Entry
    {
        bool readOnly = false;
        bool everSet = false;
        bool cleared = false;
        std::uint64_t clearedByRegion = 0;
    };

    std::size_t indexOf(std::uint64_t region) const
    {
        return region % config.entries;
    }

    ReadOnlyDetectorParams config;
    std::vector<Entry> entries;
};

} // namespace shmgpu::detect

#endif // SHMGPU_DETECT_READONLY_HH
