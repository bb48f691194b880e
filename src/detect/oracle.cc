#include "detect/oracle.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"

namespace shmgpu::detect
{

namespace
{

/** Call @p fn on each of @p ids in ascending order. */
template <typename Fn>
void
visitAscending(const std::vector<std::uint64_t> &ids, Fn &&fn)
{
    // finalize() sorts in place; only ids recorded since need a copy.
    if (std::is_sorted(ids.begin(), ids.end())) {
        for (std::uint64_t id : ids)
            fn(id);
        return;
    }
    std::vector<std::uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint64_t id : sorted)
        fn(id);
}

} // namespace

AccessProfile::PartitionProfile::PartitionProfile(
    std::size_t regions, std::size_t chunks, std::size_t cooldown_entries)
    : regionAccesses(regions), chunks(chunks),
      writtenRegions((regions + 63) / 64), randomChunks((chunks + 63) / 64),
      cooldown(cooldown_entries)
{
}

AccessProfile::AccessProfile(unsigned num_partitions,
                             std::uint64_t partition_bytes,
                             std::uint64_t region_bytes,
                             std::uint64_t chunk_bytes,
                             std::uint32_t block_bytes)
    : spanBytes(partition_bytes), regionSize(region_bytes),
      chunkSize(chunk_bytes)
{
    shm_assert(num_partitions > 0, "need at least one partition");
    shm_assert(isPowerOf2(region_bytes) && isPowerOf2(chunk_bytes) &&
                   isPowerOf2(block_bytes),
               "profile region ({}), chunk ({}) and block ({}) sizes "
               "must be powers of two",
               region_bytes, chunk_bytes, block_bytes);
    shm_assert(chunk_bytes >= block_bytes, "chunk smaller than block");
    regionShift = floorLog2(region_bytes);
    chunkShift = floorLog2(chunk_bytes);
    blockShift = floorLog2(block_bytes);
    const std::uint64_t blocks_per_chunk = chunk_bytes / block_bytes;
    shm_assert(blocks_per_chunk <= 64, "access mask is 64 bits");
    fullMask = blocks_per_chunk >= 64 ? ~0ull
                                      : ((1ull << blocks_per_chunk) - 1);
    accessBudget = phaseRules.monitorAccesses *
                   (block_bytes / phaseRules.sectorBytes);

    const std::size_t regions = (partition_bytes + region_bytes - 1) /
                                region_bytes;
    const std::size_t chunks = (partition_bytes + chunk_bytes - 1) /
                               chunk_bytes;
    partitions.reserve(num_partitions);
    for (unsigned p = 0; p < num_partitions; ++p)
        partitions.emplace_back(regions, chunks,
                                phaseRules.cooldownEntries);
}

bool
AccessProfile::inCooldown(const PartitionProfile &prof,
                          std::uint64_t chunk, Cycle now) const
{
    for (const auto &c : prof.cooldown)
        if (c.until > now && c.chunk == chunk)
            return true;
    return false;
}

void
AccessProfile::recordAccess(PartitionId partition, LocalAddr addr,
                            bool is_write, Cycle now)
{
    PartitionProfile &prof = partitions.at(partition);
    checkAddr(addr);
    shm_assert(now >= prof.lastAccess,
               "partition {} access at cycle {} after one at cycle {}: "
               "oracle phases expire lazily and need monotone time",
               partition, now, prof.lastAccess);
    prof.lastAccess = now;
    finalized = false;

    const std::uint64_t region = addr >> regionShift;
    if (prof.regionAccesses[region]++ == 0)
        prof.touchedRegions.push_back(region);
    if (is_write)
        prof.writtenRegions[region >> 6] |= 1ull << (region & 63);

    const std::uint64_t chunk = addr >> chunkShift;
    ChunkRecord &c = prof.chunks[chunk];
    if (c.accesses++ == 0)
        prof.touchedChunks.push_back(chunk);
    const std::uint64_t block =
        1ull << ((addr & (chunkSize - 1)) >> blockShift);
    c.touchedMask |= block;

    // The unlimited tracker: a timed-out phase closes as random (it
    // cannot have full coverage, or it would have closed already).
    if (c.live && now >= c.phaseStart + phaseRules.timeoutCycles) {
        ++c.randomVotes;
        c.live = false;
    }
    if (!c.live) {
        if (inCooldown(prof, chunk, now))
            return; // straggler after a completed phase
        c.live = true;
        c.phaseStart = now;
        c.phaseMask = 0;
        c.phaseAccesses = 0;
    }
    c.phaseMask |= block;
    ++c.phaseAccesses;

    if ((c.phaseMask & fullMask) == fullMask) {
        // Every block touched: streaming, and absorb the stragglers.
        ++c.streamVotes;
        c.live = false;
        if (!prof.cooldown.empty()) {
            prof.cooldown[prof.cooldownNext] = {
                chunk, now + phaseRules.cooldownCycles};
            prof.cooldownNext =
                (prof.cooldownNext + 1) %
                static_cast<std::uint32_t>(prof.cooldown.size());
        }
    } else if (c.phaseAccesses >= accessBudget) {
        // The access budget ran out with gaps left: random.
        ++c.randomVotes;
        c.live = false;
    }
}

void
AccessProfile::finalize()
{
    for (PartitionProfile &prof : partitions) {
        for (std::uint64_t chunk : prof.touchedChunks) {
            ChunkRecord &c = prof.chunks[chunk];
            if (c.live) {
                ++c.randomVotes;
                c.live = false;
            }
            const std::uint64_t bit = 1ull << (chunk & 63);
            std::uint64_t &word = prof.randomChunks[chunk >> 6];
            word = chunkStreamingRecord(c) ? word & ~bit : word | bit;
        }
        std::sort(prof.touchedRegions.begin(), prof.touchedRegions.end());
        std::sort(prof.touchedChunks.begin(), prof.touchedChunks.end());
    }
    finalized = true;
}

TruthProfile
AccessProfile::truth() const
{
    shm_assert(finalized, "truth profile taken with accesses recorded "
                          "since the last finalize()");
    // The bits up to the word of the highest id in @p ids, which
    // finalize() sorted: the retained query bits of a profile never
    // reach past its touched ids.
    auto prefix = [](const BitArray &bits,
                     const std::vector<std::uint64_t> &ids) {
        const std::size_t words = ids.empty() ? 0 : (ids.back() >> 6) + 1;
        return TruthProfile::Bits(bits.data(), bits.data() + words);
    };
    TruthProfile t;
    t.spanBytes = spanBytes;
    t.regionShift = regionShift;
    t.chunkShift = chunkShift;
    t.ratios = accessRatios();
    t.partitions.reserve(partitions.size());
    for (const PartitionProfile &prof : partitions) {
        TruthProfile::PartitionTruth &pt = t.partitions.emplace_back();
        pt.writtenRegions = prefix(prof.writtenRegions, prof.touchedRegions);
        pt.randomChunks = prefix(prof.randomChunks, prof.touchedChunks);
        pt.touchedChunks.resize(pt.randomChunks.size());
        for (std::uint64_t chunk : prof.touchedChunks)
            pt.touchedChunks[chunk >> 6] |= 1ull << (chunk & 63);
    }
    return t;
}

bool
AccessProfile::chunkStreamingRecord(const ChunkRecord &c) const
{
    if (c.streamVotes || c.randomVotes)
        return c.streamVotes >= c.randomVotes;
    // Too few accesses for any oracle phase to complete: fall back to
    // whole-run block coverage.
    return (c.touchedMask & fullMask) == fullMask;
}

void
AccessProfile::forEachChunk(
    PartitionId partition,
    const std::function<void(std::uint64_t, bool)> &fn) const
{
    const PartitionProfile &prof = partitions.at(partition);
    visitAscending(prof.touchedChunks, [&](std::uint64_t chunk) {
        fn(chunk, chunkStreamingRecord(prof.chunks[chunk]));
    });
}

void
AccessProfile::forEachWrittenRegion(
    PartitionId partition,
    const std::function<void(std::uint64_t)> &fn) const
{
    const PartitionProfile &prof = partitions.at(partition);
    visitAscending(prof.touchedRegions, [&](std::uint64_t region) {
        if (testBit(prof.writtenRegions, region))
            fn(region);
    });
}

AccessProfile::Ratios
AccessProfile::accessRatios() const
{
    Ratios r;
    std::uint64_t streaming = 0;
    std::uint64_t read_only = 0;
    for (const auto &prof : partitions) {
        for (std::uint64_t chunk : prof.touchedChunks) {
            const ChunkRecord &c = prof.chunks[chunk];
            r.totalAccesses += c.accesses;
            if (chunkStreamingRecord(c))
                streaming += c.accesses;
        }
        for (std::uint64_t region : prof.touchedRegions) {
            if (!testBit(prof.writtenRegions, region))
                read_only += prof.regionAccesses[region];
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

namespace
{

/** Call @p fn on each set bit's id of @p bits in ascending order. */
template <typename Fn>
void
visitBits(const std::vector<std::uint64_t> &bits, Fn &&fn)
{
    for (std::size_t w = 0; w < bits.size(); ++w)
        for (std::uint64_t word = bits[w]; word; word &= word - 1)
            fn(w * 64 + static_cast<std::uint64_t>(std::countr_zero(word)));
}

} // namespace

void
TruthProfile::forEachChunk(
    PartitionId partition,
    const std::function<void(std::uint64_t, bool)> &fn) const
{
    const PartitionTruth &pt = partitions.at(partition);
    visitBits(pt.touchedChunks, [&](std::uint64_t chunk) {
        fn(chunk, !testBit(pt.randomChunks, chunk));
    });
}

void
TruthProfile::forEachWrittenRegion(
    PartitionId partition,
    const std::function<void(std::uint64_t)> &fn) const
{
    visitBits(partitions.at(partition).writtenRegions, fn);
}

} // namespace shmgpu::detect
