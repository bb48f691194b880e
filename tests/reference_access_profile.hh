/**
 * @file
 * The detector-backed access profile: the differential-test reference
 * for detect::AccessProfile's lazy per-chunk oracle phases.
 *
 * This is the profile as it was before it stopped running a
 * StreamingDetector. Every access is fed to one unlimited-MAT
 * (trackers = 0) detector per partition, which eagerly expires every
 * timed-out phase on each access; the detection events it returns
 * vote per chunk. Ground truth lives in hash maps keyed by region and
 * chunk id. tests/test_access_profile_diff.cc holds the two equal
 * after every finalize.
 */

#ifndef SHMGPU_TESTS_REFERENCE_ACCESS_PROFILE_HH
#define SHMGPU_TESTS_REFERENCE_ACCESS_PROFILE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "detect/oracle.hh"
#include "detect/streaming.hh"

namespace shmgpu::test
{

class ReferenceAccessProfile
{
  public:
    using Ratios = detect::AccessProfile::Ratios;

    ReferenceAccessProfile(unsigned num_partitions,
                           std::uint64_t region_bytes = 16 * 1024,
                           std::uint64_t chunk_bytes = 4096,
                           std::uint32_t block_bytes = 128)
        : regionSize(region_bytes), chunkSize(chunk_bytes),
          blockSize(block_bytes)
    {
        shm_assert(num_partitions > 0, "need at least one partition");
        partitions.resize(num_partitions);

        detect::StreamingDetectorParams oracle_params;
        oracle_params.entries = 1; // bit vector unused for truth
        oracle_params.chunkBytes = chunk_bytes;
        oracle_params.blockBytes = block_bytes;
        oracle_params.trackers = 0; // unlimited
        for (unsigned p = 0; p < num_partitions; ++p)
            oracles.push_back(
                std::make_unique<detect::StreamingDetector>(oracle_params));
    }

    void
    recordAccess(PartitionId partition, LocalAddr addr, bool is_write,
                 Cycle now)
    {
        PartitionProfile &prof = partitions.at(partition);

        if (is_write)
            prof.regionWritten[addr / regionSize] = true;

        ++prof.regionAccesses[addr / regionSize];

        ChunkStats &cs = prof.chunks[addr / chunkSize];
        ++cs.accesses;
        std::uint32_t block_in_chunk = static_cast<std::uint32_t>(
            (addr % chunkSize) / blockSize);
        cs.touchedMask |= (1ull << block_in_chunk);

        oracles[partition]->access(addr, is_write, now, prof.events);
        drainEvents(prof);
    }

    void
    finalize(Cycle now)
    {
        for (unsigned p = 0; p < partitions.size(); ++p) {
            oracles[p]->finalizeAll(now, partitions[p].events);
            drainEvents(partitions[p]);
        }
    }

    bool
    regionReadOnly(PartitionId partition, LocalAddr addr) const
    {
        return !partitions.at(partition).regionWritten.contains(
            addr / regionSize);
    }

    bool
    chunkStreaming(PartitionId partition, LocalAddr addr) const
    {
        const ChunkStats *cs =
            partitions.at(partition).chunks.find(addr / chunkSize);
        if (!cs)
            return true; // never profiled: keep the eager default
        return chunkStreamingStats(*cs);
    }

    void
    forEachChunk(PartitionId partition,
                 const std::function<void(std::uint64_t, bool)> &fn) const
    {
        const auto &chunks = partitions.at(partition).chunks;
        for (std::uint64_t chunk : sortedKeys(chunks))
            fn(chunk, chunkStreamingStats(*chunks.find(chunk)));
    }

    void
    forEachWrittenRegion(PartitionId partition,
                         const std::function<void(std::uint64_t)> &fn) const
    {
        for (std::uint64_t region :
             sortedKeys(partitions.at(partition).regionWritten))
            fn(region);
    }

    Ratios
    accessRatios() const
    {
        Ratios r;
        std::uint64_t streaming = 0;
        std::uint64_t read_only = 0;
        for (const auto &prof : partitions) {
            for (const auto &[chunk, cs] : prof.chunks) {
                r.totalAccesses += cs.accesses;
                if (chunkStreamingStats(cs))
                    streaming += cs.accesses;
            }
            for (const auto &[region, count] : prof.regionAccesses) {
                if (!prof.regionWritten.contains(region))
                    read_only += count;
            }
        }
        if (r.totalAccesses) {
            r.streaming = static_cast<double>(streaming) /
                          static_cast<double>(r.totalAccesses);
            r.readOnly = static_cast<double>(read_only) /
                         static_cast<double>(r.totalAccesses);
        }
        return r;
    }

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
        std::vector<detect::DetectionEvent> events;
    };

    template <typename V>
    static std::vector<std::uint64_t>
    sortedKeys(const FlatMap<V> &map)
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(map.size());
        for (const auto &[key, value] : map)
            keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    bool
    chunkStreamingStats(const ChunkStats &cs) const
    {
        if (cs.streamVotes || cs.randomVotes)
            return cs.streamVotes >= cs.randomVotes;
        std::uint32_t blocks_per_chunk =
            static_cast<std::uint32_t>(chunkSize / blockSize);
        std::uint64_t full = blocks_per_chunk >= 64
                                 ? ~0ull
                                 : ((1ull << blocks_per_chunk) - 1);
        return (cs.touchedMask & full) == full;
    }

    void
    drainEvents(PartitionProfile &prof)
    {
        for (const auto &ev : prof.events) {
            ChunkStats &cs = prof.chunks[ev.chunk];
            if (ev.detectedStreaming)
                ++cs.streamVotes;
            else
                ++cs.randomVotes;
        }
        prof.events.clear();
    }

    std::uint64_t regionSize;
    std::uint64_t chunkSize;
    std::uint32_t blockSize;
    std::vector<PartitionProfile> partitions;
    std::vector<std::unique_ptr<detect::StreamingDetector>> oracles;
};

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_ACCESS_PROFILE_HH
