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
 */

#ifndef SHMGPU_DETECT_ORACLE_HH
#define SHMGPU_DETECT_ORACLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "detect/streaming.hh"

namespace shmgpu::detect
{

/** Ground-truth profile of one workload execution. */
class AccessProfile
{
  public:
    AccessProfile(unsigned num_partitions,
                  std::uint64_t region_bytes = 16 * 1024,
                  std::uint64_t chunk_bytes = 4096,
                  std::uint32_t block_bytes = 128);

    /** @{ Collection interface (profiling pass). */
    void recordAccess(PartitionId partition, LocalAddr addr, bool is_write,
                      Cycle now);
    /** Flush in-flight oracle monitoring phases (kernel boundary/end). */
    void finalize(Cycle now);
    /** @} */

    /** @{ Query interface. */
    /** True when no kernel write ever touched the region of @p addr. */
    bool regionReadOnly(PartitionId partition, LocalAddr addr) const;

    /** Majority oracle classification of the chunk of @p addr. */
    bool chunkStreaming(PartitionId partition, LocalAddr addr) const;

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
    struct ChunkStats
    {
        std::uint32_t streamVotes = 0;
        std::uint32_t randomVotes = 0;
        std::uint64_t touchedMask = 0;
        std::uint64_t accesses = 0;
    };

    struct PartitionProfile
    {
        FlatMap<bool> regionWritten;
        FlatMap<std::uint64_t> regionAccesses;
        FlatMap<ChunkStats> chunks;
        std::vector<DetectionEvent> events;
    };

    bool chunkStreamingStats(const ChunkStats &cs) const;

    void drainEvents(PartitionProfile &prof);

    std::uint64_t regionSize;
    std::uint64_t chunkSize;
    std::uint32_t blockSize;
    std::vector<PartitionProfile> partitions;
    /** One unlimited-MAT oracle detector per partition. */
    std::vector<std::unique_ptr<StreamingDetector>> oracles;
};

} // namespace shmgpu::detect

#endif // SHMGPU_DETECT_ORACLE_HH
