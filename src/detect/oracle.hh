/**
 * @file
 * Offline profiling oracle for detector-accuracy evaluation and the
 * SHM_upper_bound configuration.
 *
 * A profiling pass replays the per-partition L2-miss/write-back stream
 * and records (a) which read-only regions are ever written (ground
 * truth for Fig. 10) and (b) each chunk's dominant access pattern as
 * seen by an unlimited-capacity memory access tracker (ground truth
 * for Fig. 11, and the predictor-priming source for the upper bound,
 * Table VIII).
 *
 * The unlimited tracker is not a StreamingDetector (whose oracle mode,
 * trackers = 0, now serves SHM_upper_bound's own MEE only, which needs
 * its ordered events): with every chunk owning a tracker, the profile
 * only needs vote counts, so each chunk keeps its one open phase
 * inline, next to its votes, and applies the detector's phase rules
 * (coverage, access budget, timeout, and the partition's cooldown
 * ring) itself. A phase that has timed out is closed lazily, on the
 * chunk's next access or at finalize(), instead of on whichever access
 * comes next. The votes are the same as an eager expiry's: they are
 * counts, a timed-out phase never has full coverage (that would have
 * closed it) and never enters the cooldown ring, and `now` never goes
 * backwards within a partition (recordAccess asserts it).
 *
 * Collection state lives in two dense demand-zero arrays per
 * partition, one record per region and one per chunk of the
 * partition's local span. What the measured run's attribution queries
 * read is smaller: one bit per region (written, set as writes are
 * recorded) and one bit per chunk (not streaming, rebuilt from the
 * votes by each finalize()), so a query is a shift and a bit load.
 * chunkStreaming() therefore answers as of the last finalize().
 *
 * A finished profile is kept as its TruthProfile (truth()): the same
 * answers from bit vectors sized to the ids the run touched, a few
 * hundred bytes per partition instead of the span-sized records, which
 * is what a memo of reference runs (core::RunMemo) holds on to.
 */

#ifndef SHMGPU_DETECT_ORACLE_HH
#define SHMGPU_DETECT_ORACLE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/demand_zero.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "detect/streaming.hh"

namespace shmgpu::detect
{

class TruthProfile;

/** Ground-truth profile of one workload execution. */
class AccessProfile
{
  public:
    /**
     * @param partition_bytes local address span of each partition
     *        (the protected bytes per partition); every recorded or
     *        queried address must lie below it.
     */
    AccessProfile(unsigned num_partitions, std::uint64_t partition_bytes,
                  std::uint64_t region_bytes = 16 * 1024,
                  std::uint64_t chunk_bytes = 4096,
                  std::uint32_t block_bytes = 128);

    /** @{ Collection interface (profiling pass). */
    /** @p now must not go backwards within a partition. */
    void recordAccess(PartitionId partition, LocalAddr addr, bool is_write,
                      Cycle now);
    /** Close every open oracle phase as timed out (end of the run).
     *  Repeatable: recording may go on, and a later finalize()
     *  rebuilds the verdicts. */
    void finalize();
    /** @} */

    /** The query half as of the last finalize(); fatal if accesses
     *  were recorded since. */
    TruthProfile truth() const;

    /** @{ Query interface. */
    /** True when no kernel write ever touched the region of @p addr. */
    bool
    regionReadOnly(PartitionId partition, LocalAddr addr) const
    {
        checkAddr(addr);
        return !testBit(partitions.at(partition).writtenRegions,
                        addr >> regionShift);
    }

    /** Majority oracle classification of the chunk of @p addr, as of
     *  the last finalize() (chunks it never saw are streaming, the
     *  eager default). */
    bool
    chunkStreaming(PartitionId partition, LocalAddr addr) const
    {
        checkAddr(addr);
        return !testBit(partitions.at(partition).randomChunks,
                        addr >> chunkShift);
    }

    /**
     * Visit every profiled chunk in ascending chunk order (for
     * predictor priming: where chunks alias in a small predictor, the
     * highest chunk id primes the shared entry last).
     */
    void forEachChunk(
        PartitionId partition,
        const std::function<void(std::uint64_t chunk, bool streaming)> &fn)
        const;

    /** Visit every written region in ascending order (read-only
     *  priming). */
    void forEachWrittenRegion(
        PartitionId partition,
        const std::function<void(std::uint64_t region)> &fn) const;

    /** Fig.-5-style whole-run access-ratio summary. */
    struct Ratios
    {
        double streaming = 0;  //!< accesses to streaming-classified chunks
        double readOnly = 0;   //!< accesses to never-written regions
        std::uint64_t totalAccesses = 0;
    };
    Ratios accessRatios() const;
    /** @} */

    std::uint64_t regionBytes() const { return regionSize; }
    std::uint64_t chunkBytes() const { return chunkSize; }

  private:
    /** One bit per id, zero until set. */
    using BitArray = DemandZeroArray<std::uint64_t>;

    static bool
    testBit(const BitArray &bits, std::uint64_t id)
    {
        return (bits[id >> 6] >> (id & 63)) & 1;
    }

    struct ChunkRecord
    {
        std::uint64_t accesses;     //!< whole run
        std::uint64_t touchedMask;  //!< blocks touched, whole run
        std::uint32_t streamVotes;
        std::uint32_t randomVotes;
        /** @{ The open oracle phase, valid while `live`. */
        Cycle phaseStart;
        std::uint64_t phaseMask;
        std::uint32_t phaseAccesses;
        bool live;
        /** @} */
    };

    struct CooldownEntry
    {
        std::uint64_t chunk = 0;
        Cycle until = 0;
    };

    struct PartitionProfile
    {
        PartitionProfile(std::size_t regions, std::size_t chunks,
                         std::size_t cooldown_entries);

        /** Accesses per region. */
        DemandZeroArray<std::uint64_t> regionAccesses;
        DemandZeroArray<ChunkRecord> chunks;
        /** Regions some write touched. */
        BitArray writtenRegions;
        /** Touched chunks whose verdict, at the last finalize(), was
         *  not streaming. */
        BitArray randomChunks;
        /** Ids with at least one access, in first-access order until
         *  finalize sorts them. */
        std::vector<std::uint64_t> touchedRegions;
        std::vector<std::uint64_t> touchedChunks;
        /** Chunks that recently closed with full coverage. */
        std::vector<CooldownEntry> cooldown;
        std::uint32_t cooldownNext = 0;
        Cycle lastAccess = 0;
    };

    /** Panic unless @p addr lies in the partition span. */
    void
    checkAddr(LocalAddr addr) const
    {
        shm_assert(addr < spanBytes,
                   "profiled address {} at or beyond the {}-byte "
                   "partition span", addr, spanBytes);
    }

    bool chunkStreamingRecord(const ChunkRecord &c) const;
    bool inCooldown(const PartitionProfile &prof, std::uint64_t chunk,
                    Cycle now) const;

    std::uint64_t spanBytes;
    std::uint64_t regionSize;
    std::uint64_t chunkSize;
    /** @{ log2 of the (power-of-two) region, chunk and block sizes. */
    unsigned regionShift;
    unsigned chunkShift;
    unsigned blockShift;
    /** @} */
    /** The unlimited tracker's phase rules (budget, timeout, cooldown). */
    StreamingDetectorParams phaseRules;
    std::uint64_t fullMask;
    std::uint32_t accessBudget;
    std::vector<PartitionProfile> partitions;
    /** No access recorded since the last finalize(). */
    bool finalized = true;
};

/**
 * What attribution and priming read of a finalized AccessProfile,
 * without its per-region and per-chunk records: per partition, one
 * bit per written region, per touched chunk and per touched chunk
 * that is not streaming, each vector only as long as the highest
 * touched id needs, plus the whole-run access ratios. Every query
 * answers as the profile it came from did at its last finalize().
 */
class TruthProfile
{
  public:
    /** @copydoc AccessProfile::regionReadOnly */
    bool
    regionReadOnly(PartitionId partition, LocalAddr addr) const
    {
        checkAddr(addr);
        return !testBit(partitions.at(partition).writtenRegions,
                        addr >> regionShift);
    }

    /** @copydoc AccessProfile::chunkStreaming */
    bool
    chunkStreaming(PartitionId partition, LocalAddr addr) const
    {
        checkAddr(addr);
        return !testBit(partitions.at(partition).randomChunks,
                        addr >> chunkShift);
    }

    /** @copydoc AccessProfile::forEachChunk */
    void forEachChunk(
        PartitionId partition,
        const std::function<void(std::uint64_t chunk, bool streaming)> &fn)
        const;

    /** @copydoc AccessProfile::forEachWrittenRegion */
    void forEachWrittenRegion(
        PartitionId partition,
        const std::function<void(std::uint64_t region)> &fn) const;

    AccessProfile::Ratios accessRatios() const { return ratios; }

  private:
    friend class AccessProfile;

    /** Bits of one id set, as long as its highest id needs. */
    using Bits = std::vector<std::uint64_t>;

    static bool
    testBit(const Bits &bits, std::uint64_t id)
    {
        const std::uint64_t word = id >> 6;
        return word < bits.size() && ((bits[word] >> (id & 63)) & 1);
    }

    void
    checkAddr(LocalAddr addr) const
    {
        shm_assert(addr < spanBytes,
                   "profiled address {} at or beyond the {}-byte "
                   "partition span", addr, spanBytes);
    }

    struct PartitionTruth
    {
        Bits writtenRegions;
        Bits touchedChunks;
        Bits randomChunks;
    };

    std::uint64_t spanBytes = 0;
    unsigned regionShift = 0;
    unsigned chunkShift = 0;
    std::vector<PartitionTruth> partitions;
    AccessProfile::Ratios ratios;
};

} // namespace shmgpu::detect

#endif // SHMGPU_DETECT_ORACLE_HH
