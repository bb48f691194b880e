#include "mem/cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::mem
{

SectoredCache::SectoredCache(const CacheParams &params) : config(params)
{
    // Every piece of index math below is shift/mask; a non-pow2
    // geometry would silently index the wrong set, so fail loudly.
    shm_assert(isPowerOf2(config.blockBytes),
               "cache '{}': blockBytes must be a power of two (got {})",
               config.name, config.blockBytes);
    shm_assert(isPowerOf2(config.sectorBytes),
               "cache '{}': sectorBytes must be a power of two (got {})",
               config.name, config.sectorBytes);
    shm_assert(config.sectorBytes <= config.blockBytes,
               "sector larger than block");
    shm_assert(config.assoc > 0, "associativity must be nonzero");

    sectorsPerBlock = config.blockBytes / config.sectorBytes;
    shm_assert(sectorsPerBlock <= 32, "sector mask is 32 bits");

    std::uint64_t num_blocks = config.sizeBytes / config.blockBytes;
    shm_assert(num_blocks >= config.assoc,
               "cache '{}' too small for its associativity", config.name);
    numSets = num_blocks / config.assoc;
    shm_assert(isPowerOf2(numSets),
               "cache '{}': number of sets must be a power of two "
               "(got {}; pick sizeBytes/blockBytes/assoc so that "
               "sizeBytes / blockBytes / assoc is pow2)",
               config.name, numSets);

    blockShift = floorLog2(config.blockBytes);
    sectorShift = floorLog2(config.sectorBytes);
    blockAlignMask = ~(Addr{config.blockBytes} - 1);
    blockOffsetMask = config.blockBytes - 1;
    fullSectorMask =
        static_cast<std::uint32_t>((std::uint64_t{1} << sectorsPerBlock) -
                                   1);
    setMask = numSets - 1;

    tags.assign(numSets * config.assoc, 0);
    lineState.assign(numSets * config.assoc, LineState{});

    replacementRng = Rng(config.policySeed);
    setPolicies.reserve(numSets);
    for (std::size_t s = 0; s < numSets; ++s)
        setPolicies.push_back(makeReplacementPolicy(
            config.policy, config.assoc, &replacementRng));
}

std::uint32_t
SectoredCache::sectorMaskFor(Addr addr, std::uint32_t bytes) const
{
    std::uint32_t offset = static_cast<std::uint32_t>(addr) &
                           blockOffsetMask;
    std::uint32_t first = offset >> sectorShift;
    std::uint32_t last = (offset + bytes - 1) >> sectorShift;
    shm_assert(last < sectorsPerBlock,
               "access at {} (+{}) crosses a block boundary", addr, bytes);
    return static_cast<std::uint32_t>((2ull << last) - 1ull) &
           ~((1u << first) - 1u);
}

std::size_t
SectoredCache::findLine(std::size_t set, Addr block_addr) const
{
    std::size_t base = setBase(set);
    Addr want = block_addr | 1;
    for (std::size_t w = 0; w < config.assoc; ++w) {
        if (tags[base + w] == want)
            return base + w;
    }
    return noWay;
}

std::size_t
SectoredCache::allocateLine(std::size_t set, Addr block_addr,
                            Writeback &wb)
{
    std::size_t base = setBase(set);
    std::size_t victim = noWay;

    // Invalid lines take priority regardless of policy: first invalid
    // way in way order. The policy is only consulted when the set is
    // full, and its pick is implicitly evicted (the policy forgets the
    // way before returning; see mem/replacement.hh).
    for (std::size_t w = 0; w < config.assoc; ++w) {
        if (tags[base + w] == 0) {
            victim = base + w;
            break;
        }
    }
    if (victim == noWay) {
        victim = base + setPolicies[set]->victim();
        if (lineState[victim].dirtyMask != 0) {
            wb.valid = true;
            wb.blockAddr = lineTag(victim);
            wb.dirtyMask = lineState[victim].dirtyMask;
            ++statWritebacks;
        }
    }
    tags[victim] = block_addr | 1;
    lineState[victim] = LineState{};
    return victim;
}

CacheAccessResult
SectoredCache::access(Addr addr, std::uint32_t bytes, bool is_write)
{
    ++statAccesses;
    Addr block = blockAlign(addr);
    std::size_t set = setIndex(block);
    std::uint32_t want = sectorMaskFor(addr, bytes);

    std::size_t line = findLine(set, block);
    if (line != noWay && (lineState[line].validMask & want) == want) {
        // Full sector hit. What (if anything) this refreshes is the
        // policy's call: LRU bumps recency, FIFO/SIEVE/S3FIFO don't
        // reorder.
        setPolicies[set]->onHit(
            static_cast<std::uint32_t>(line - setBase(set)));
        if (is_write)
            lineState[line].dirtyMask |= want;
        ++statHits;
        return {CacheOutcome::Hit, 0, {}};
    }

    CacheAccessResult out;
    if (is_write && !config.fetchOnWriteMiss) {
        // Write-validate: install the written sectors without a fetch.
        // Write-no-allocate without fetch passes through instead: the
        // owner sends the write straight to DRAM.
        ++statWriteNoFetch;
        out.outcome = CacheOutcome::WriteNoFetch;
        if (!config.writeAllocate)
            return out;
        if (line == noWay)
            line = allocateLine(set, block, out.writeback);
        lineState[line].validMask |= want;
        lineState[line].dirtyMask |= want;
        noteInsert(set, line, block);
        return out;
    }

    // Read miss (or RMW write miss): the missing sectors (or, for a
    // non-sectored cache, the whole block) come from DRAM, and are
    // valid from now on; a write dirties what it writes.
    ++statMisses;
    out.outcome = CacheOutcome::Miss;
    if (line == noWay)
        line = allocateLine(set, block, out.writeback);
    out.fetchMask = config.fetchWholeBlock
                        ? fullSectorMask
                        : want & ~lineState[line].validMask;
    lineState[line].validMask |= out.fetchMask | want;
    if (is_write)
        lineState[line].dirtyMask |= want;
    noteInsert(set, line, block);
    return out;
}

std::uint32_t
SectoredCache::probe(Addr addr) const
{
    Addr block = blockAlign(addr);
    std::size_t line = findLine(setIndex(block), block);
    return line != noWay ? lineState[line].validMask : 0;
}

Writeback
SectoredCache::insert(Addr block_addr, std::uint32_t valid_mask,
                      std::uint32_t dirty_mask)
{
    Addr block = blockAlign(block_addr);
    std::size_t set = setIndex(block);
    Writeback wb;
    std::size_t line = findLine(set, block);
    if (line == noWay)
        line = allocateLine(set, block, wb);
    lineState[line].validMask |= valid_mask;
    lineState[line].dirtyMask |= dirty_mask;
    noteInsert(set, line, block);
    return wb;
}

Writeback
SectoredCache::dropLine(std::size_t set, std::size_t line)
{
    Writeback wb;
    if (lineState[line].dirtyMask) {
        wb.valid = true;
        wb.blockAddr = lineTag(line);
        wb.dirtyMask = lineState[line].dirtyMask;
    }
    setPolicies[set]->onEvict(
        static_cast<std::uint32_t>(line - setBase(set)));
    tags[line] = 0;
    lineState[line] = LineState{};
    return wb;
}

Writeback
SectoredCache::invalidate(Addr block_addr)
{
    Addr block = blockAlign(block_addr);
    std::size_t set = setIndex(block);
    std::size_t line = findLine(set, block);
    return line != noWay ? dropLine(set, line) : Writeback{};
}

void
SectoredCache::flushDirty(std::vector<Writeback> &out)
{
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (tags[i] != 0 && lineState[i].dirtyMask) {
            out.push_back({true, lineTag(i), lineState[i].dirtyMask});
            lineState[i].dirtyMask = 0;
        }
    }
}

void
SectoredCache::invalidateAll(std::vector<Writeback> &out)
{
    for (std::size_t set = 0; set < numSets; ++set) {
        for (std::size_t line = setBase(set);
             line < setBase(set) + config.assoc; ++line) {
            if (tags[line] == 0)
                continue;
            Writeback wb = dropLine(set, line);
            if (wb.valid) {
                out.push_back(wb);
                ++statWritebacks;
            }
        }
    }
}

void
SectoredCache::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, config.name);
    statGroup.addScalar("accesses", &statAccesses, "total accesses");
    statGroup.addScalar("hits", &statHits, "full sector hits");
    statGroup.addScalar("misses", &statMisses,
                        "read and read-modify-write misses");
    statGroup.addScalar("write_no_fetch", &statWriteNoFetch,
                        "write-validate misses");
    statGroup.addScalar("writebacks", &statWritebacks,
                        "dirty eviction write-backs");
}

} // namespace shmgpu::mem
