/**
 * @file
 * Hardware streaming-access detector (Section IV-C of the paper).
 *
 * Two structures per partition:
 *  - a tagless bit vector indexed by chunk id (4 KB chunks), eagerly
 *    initialized to all-1 (streaming) because GPU workloads stream by
 *    default;
 *  - N memory access trackers (MATs), each monitoring one chunk with a
 *    20-bit tag, a write flag and 32 one-bit per-block access
 *    counters. A monitoring phase ends after K = 32 accesses or a
 *    6K-cycle timeout; if every block in the chunk was touched the
 *    chunk is classified streaming, otherwise random, and the bit
 *    vector entry is updated.
 *
 * Detection events are returned to the caller (the MEE), which charges
 * the Table III/IV misprediction bandwidth and swaps MAC granularity.
 *
 * With trackers = 0 (the paper's unlimited-MAT oracle) the pool grows
 * to thousands of live trackers. That mode now serves SHM_upper_bound's
 * own MEE only, which consumes its ordered events; the profiling pass
 * (detect/oracle.hh) keeps each chunk's phase inline instead. Oracle
 * mode indexes the pool: an array from chunk id to slot, a
 * min-heap of free slots (allocation takes the lowest, as a scan
 * would) and a deadline heap for lazy timeout expiry. Phases that
 * expire together finalize in ascending slot order, so the event
 * stream is the one a linear scan of the pool produces. Bounded-MAT
 * mode (the Table IX hardware) scans its 8 or 16 trackers.
 */

#ifndef SHMGPU_DETECT_STREAMING_HH
#define SHMGPU_DETECT_STREAMING_HH

#include <cstdint>
#include <vector>

#include "common/dary_heap.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace shmgpu::detect
{

/** Static configuration of a StreamingDetector. */
struct StreamingDetectorParams
{
    std::uint32_t entries = 2048;      //!< bit-vector length
    std::uint64_t chunkBytes = 4096;
    std::uint32_t blockBytes = 128;
    /** Number of MATs; 0 = unlimited (the paper's oracle tracker). */
    std::uint32_t trackers = 8;
    /**
     * K: monitoring ends after this many *distinct-block* touches —
     * equivalently, a streaming chunk finalizes exactly when all of
     * its blocks have been seen. Accesses are sector-granular, so raw
     * access counts are capped at K x sectors-per-block before the
     * phase is cut off as random.
     */
    std::uint32_t monitorAccesses = 32;
    std::uint32_t sectorBytes = 32;
    Cycle timeoutCycles = 6000;
    /**
     * After a phase finalizes with full coverage, stray trailing
     * accesses to the same chunk (sector stragglers) are ignored for
     * this long instead of starting a junk phase that would time out
     * as "random". A small ring of recently-finalized chunk tags.
     */
    Cycle cooldownCycles = 3000;
    std::uint32_t cooldownEntries = 8;
    /**
     * MATs exist to *verify streaming* predictions; a chunk already
     * classified random gains nothing from continuous re-monitoring
     * but would hog trackers (hot random chunks see many accesses).
     * Random-classified chunks are therefore re-monitored only every
     * Nth candidate access, so runtime random->streaming changes are
     * still caught without starving the streaming fronts.
     */
    std::uint32_t randomRemonitorPeriod = 32;
    /**
     * At most this many MATs may simultaneously monitor random-
     * classified chunks, so slow phases on hot random data (which
     * usually run into the timeout) cannot starve the streaming
     * fronts of trackers.
     */
    std::uint32_t randomMonitorLimit = 2;

    bool operator==(const StreamingDetectorParams &) const = default;
};

/** Why a monitoring phase ended. */
enum class PhaseExit : std::uint8_t
{
    Coverage, //!< every block touched: early streaming verdict
    Budget,   //!< access budget exhausted with gaps: random
    Timeout   //!< phase timed out (or was flushed/reclaimed)
};

/** Outcome of a completed monitoring phase. */
struct DetectionEvent
{
    std::uint64_t chunk = 0;    //!< chunk id (local addr / chunkBytes)
    bool detectedStreaming = false;
    bool predictedStreaming = false; //!< bit-vector value when phase began
    bool sawWrite = false;      //!< write flag accumulated in the MAT
    std::uint64_t accessMask = 0; //!< blocks touched during the phase
    PhaseExit exit = PhaseExit::Timeout; //!< how the phase ended
};

/** Per-partition streaming-accessed chunk detector. */
class StreamingDetector
{
  public:
    explicit StreamingDetector(const StreamingDetectorParams &params);

    std::uint64_t chunkOf(LocalAddr addr) const
    {
        return addr / config.chunkBytes;
    }

    /** Current prediction for @p addr. */
    bool predictStreaming(LocalAddr addr) const;

    /**
     * True when the streaming prediction for @p addr's chunk is
     * *verifiable*: a MAT is currently monitoring it, it just
     * completed a full-coverage phase (cooldown), or its predictor
     * entry was set by a detection of this same chunk. A predicted-
     * stream access to an unconfirmed chunk cannot defer verification
     * to a chunk-completion event that may never come, so the engine
     * must also consult the block-level MAC.
     */
    bool confirmedStreaming(LocalAddr addr, Cycle now) const;

    /**
     * Feed one memory access (L2 miss or write-back). May complete
     * monitoring phases (for this chunk, or others that timed out);
     * completed phases are appended to @p events.
     */
    void access(LocalAddr addr, bool is_write, Cycle now,
                std::vector<DetectionEvent> &events);

    /** Flush trackers as if all timed out (kernel boundary). */
    void finalizeAll(Cycle now, std::vector<DetectionEvent> &events);

    /**
     * Context switch: restore the power-on state — bit vector back to
     * its eager all-streaming initialization, every MAT invalid,
     * cooldown ring and re-monitor pacing cleared. Callers wanting
     * the in-flight phases accounted first run finalizeAll() before
     * resetting (the MEE's contextSwitch does).
     */
    void reset();

    /**
     * Force a prediction (SHM_upper_bound initializes the vector from
     * a profiling pass).
     */
    void primePrediction(std::uint64_t chunk, bool streaming);

    /**
     * True when the bit-vector entry for @p chunk still holds its
     * eager all-streaming initialization value (never updated by any
     * detection) — used for MP_Init attribution.
     */
    bool entryNeverUpdated(std::uint64_t chunk) const;

    /**
     * Chunk id whose detection last updated the entry for @p chunk
     * (valid only when !entryNeverUpdated) — used for MP_Aliasing
     * attribution.
     */
    std::uint64_t entryLastUpdater(std::uint64_t chunk) const;

    /** Storage cost in bits (Table IX): bit vector + MATs. */
    std::uint64_t hardwareBits() const;

    /** Register observability counters under @p parent. */
    void regStats(stats::StatGroup *parent);

    const StreamingDetectorParams &params() const { return config; }

  private:
    struct Tracker
    {
        bool valid = false;
        std::uint64_t chunk = 0;
        bool predictedStreaming = false;
        bool writeFlag = false;
        std::uint64_t accessMask = 0; //!< one bit per block in chunk
        std::uint32_t accesses = 0;
        Cycle started = 0;
        /** Bumped by finalize: retires the slot's oracle deadline. */
        std::uint32_t generation = 0;
    };

    /** Oracle-mode timeout of one phase; ordered by expiry cycle. */
    struct Deadline
    {
        Cycle at = 0;
        std::uint32_t slot = 0;
        std::uint32_t generation = 0;

        bool operator<(const Deadline &o) const { return at < o.at; }
    };

    struct Entry
    {
        bool streaming = true;
        bool everUpdated = false;
        std::uint64_t lastUpdater = 0;
    };

    std::size_t indexOf(std::uint64_t chunk) const
    {
        return chunk % config.entries;
    }

    std::uint32_t blocksPerChunk() const
    {
        return static_cast<std::uint32_t>(config.chunkBytes /
                                          config.blockBytes);
    }

    bool oracle() const { return config.trackers == 0; }

    /** Oracle-mode slot of @p chunk's live tracker plus one; 0 when
     *  no tracker monitors it. */
    std::uint32_t liveSlotOf(std::uint64_t chunk) const
    {
        return chunk < liveSlot.size() ? liveSlot[chunk] : 0;
    }

    void finalize(Tracker &t, std::vector<DetectionEvent> &events,
                  Cycle now, PhaseExit exit);
    Tracker *findTracker(std::uint64_t chunk);
    Tracker *allocTracker(std::uint64_t chunk, Cycle now,
                          std::vector<DetectionEvent> &events);
    void expireTimedOut(Cycle now, std::vector<DetectionEvent> &events);
    void clearOraclePool();
    bool inCooldown(std::uint64_t chunk, Cycle now) const;

    struct CooldownEntry
    {
        std::uint64_t chunk = 0;
        Cycle until = 0;
    };

    StreamingDetectorParams config;
    std::vector<Entry> entries;
    std::vector<Tracker> trackers; //!< fixed pool, or growing if oracle
    std::vector<CooldownEntry> cooldown; //!< ring of finalized chunks
    std::uint32_t cooldownNext = 0;
    std::uint32_t remonitorTick = 0; //!< random-chunk re-monitor pacing

    /** @{ Oracle-mode indexes over `trackers` (empty when bounded). */
    std::vector<std::uint32_t> liveSlot; //!< chunk -> slot + 1, 0: none
    DaryHeap<std::uint32_t> freeSlots; //!< invalid slots, lowest on top
    DaryHeap<Deadline> deadlines;      //!< may hold retired entries
    std::vector<std::uint32_t> expiredSlots; //!< scratch for access()
    /** @} */

    stats::StatGroup statGroup;
    stats::Scalar statPhasesStarted;
    stats::Scalar statCoverageExits;
    stats::Scalar statBudgetExits;
    stats::Scalar statTimeoutExits;
    stats::Scalar statCooldownAbsorbed;
    stats::Scalar statNoTrackerFree;
    stats::Scalar statRemonitorSkipped;
};

} // namespace shmgpu::detect

#endif // SHMGPU_DETECT_STREAMING_HH
