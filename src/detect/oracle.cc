#include "detect/oracle.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shmgpu::detect
{

namespace
{

/** @p map's keys in ascending order (FlatMap iterates in slot order). */
template <typename V>
std::vector<std::uint64_t>
sortedKeys(const FlatMap<V> &map)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto &[key, value] : map)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

AccessProfile::AccessProfile(unsigned num_partitions,
                             std::uint64_t region_bytes,
                             std::uint64_t chunk_bytes,
                             std::uint32_t block_bytes)
    : regionSize(region_bytes), chunkSize(chunk_bytes),
      blockSize(block_bytes)
{
    shm_assert(num_partitions > 0, "need at least one partition");
    partitions.resize(num_partitions);

    StreamingDetectorParams oracle_params;
    oracle_params.entries = 1; // bit vector unused for truth collection
    oracle_params.chunkBytes = chunk_bytes;
    oracle_params.blockBytes = block_bytes;
    oracle_params.trackers = 0; // unlimited
    oracles.reserve(num_partitions);
    for (unsigned p = 0; p < num_partitions; ++p)
        oracles.push_back(
            std::make_unique<StreamingDetector>(oracle_params));
}

void
AccessProfile::drainEvents(PartitionProfile &prof)
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

void
AccessProfile::recordAccess(PartitionId partition, LocalAddr addr,
                            bool is_write, Cycle now)
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
AccessProfile::finalize(Cycle now)
{
    for (unsigned p = 0; p < partitions.size(); ++p) {
        oracles[p]->finalizeAll(now, partitions[p].events);
        drainEvents(partitions[p]);
    }
}

bool
AccessProfile::regionReadOnly(PartitionId partition, LocalAddr addr) const
{
    const auto &written = partitions.at(partition).regionWritten;
    return !written.contains(addr / regionSize);
}

bool
AccessProfile::chunkStreamingStats(const ChunkStats &cs) const
{
    if (cs.streamVotes || cs.randomVotes)
        return cs.streamVotes >= cs.randomVotes;
    // Too few accesses for any oracle phase to complete: fall back to
    // whole-run block coverage.
    std::uint32_t blocks_per_chunk =
        static_cast<std::uint32_t>(chunkSize / blockSize);
    std::uint64_t full = blocks_per_chunk >= 64
                             ? ~0ull
                             : ((1ull << blocks_per_chunk) - 1);
    return (cs.touchedMask & full) == full;
}

bool
AccessProfile::chunkStreaming(PartitionId partition, LocalAddr addr) const
{
    const ChunkStats *cs = partitions.at(partition).chunks.find(
        addr / chunkSize);
    if (!cs)
        return true; // never profiled: keep the eager default
    return chunkStreamingStats(*cs);
}

void
AccessProfile::forEachChunk(
    PartitionId partition,
    const std::function<void(std::uint64_t, bool)> &fn) const
{
    const auto &chunks = partitions.at(partition).chunks;
    for (std::uint64_t chunk : sortedKeys(chunks))
        fn(chunk, chunkStreamingStats(*chunks.find(chunk)));
}

AccessProfile::Ratios
AccessProfile::accessRatios() const
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

void
AccessProfile::forEachWrittenRegion(
    PartitionId partition,
    const std::function<void(std::uint64_t)> &fn) const
{
    for (std::uint64_t region :
         sortedKeys(partitions.at(partition).regionWritten))
        fn(region);
}

} // namespace shmgpu::detect
