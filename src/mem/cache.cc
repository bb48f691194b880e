#include "mem/cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::mem
{

namespace
{

/** The set count of @p config, after checking its geometry. */
std::size_t
checkedSetCount(const CacheParams &config)
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
    shm_assert(config.blockBytes / config.sectorBytes <= 32,
               "sector mask is 32 bits");

    std::uint64_t num_blocks = config.sizeBytes / config.blockBytes;
    shm_assert(num_blocks >= config.assoc,
               "cache '{}' too small for its associativity", config.name);
    std::size_t num_sets = num_blocks / config.assoc;
    shm_assert(isPowerOf2(num_sets),
               "cache '{}': number of sets must be a power of two "
               "(got {}; pick sizeBytes/blockBytes/assoc so that "
               "sizeBytes / blockBytes / assoc is pow2)",
               config.name, num_sets);
    return num_sets;
}

} // namespace

SectoredCache::SectoredCache(const CacheParams &params)
    : config(params), numSets(checkedSetCount(params)),
      replacement(params.policy, numSets, params.assoc, params.policySeed)
{
    sectorsPerBlock = config.blockBytes / config.sectorBytes;
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
}

namespace
{

/** Out of line, so the check in sectorMaskFor() inlines into access(). */
[[noreturn, gnu::cold, gnu::noinline]] void
panicBlockCrossing(Addr addr, std::uint32_t bytes)
{
    shm_panic("access at {} (+{}) crosses a block boundary", addr, bytes);
}

} // namespace

std::uint32_t
SectoredCache::sectorMaskFor(Addr addr, std::uint32_t bytes) const
{
    std::uint32_t offset = static_cast<std::uint32_t>(addr) &
                           blockOffsetMask;
    std::uint32_t first = offset >> sectorShift;
    std::uint32_t last = (offset + bytes - 1) >> sectorShift;
    if (last >= sectorsPerBlock)
        panicBlockCrossing(addr, bytes);
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

template <bool Stamped>
SectoredCache::SetScan
SectoredCache::scanSet(std::size_t set, Addr block_addr) const
{
    std::size_t base = setBase(set);
    Addr want = block_addr | 1;
    SetScan found;
    // Invalid lines carry stamp 0 and valid ones a clock value of at
    // least 1, so the first minimum stamp is the first invalid way if
    // there is one, else the oldest line.
    std::uint64_t oldest = ~std::uint64_t{0};
    for (std::size_t line = base; line < base + config.assoc; ++line) {
        Addr tag = tags[line];
        if (tag == want) {
            found.hit = line;
            break;
        }
        if constexpr (Stamped) {
            // Selects, not a branch: which way is older is a coin flip
            // to the branch predictor.
            std::uint64_t stamp = replacement.stamp(line);
            bool older = stamp < oldest;
            oldest = older ? stamp : oldest;
            found.victim = older ? line : found.victim;
        } else if (tag == 0 && found.victim == noWay) {
            found.victim = line;
        }
    }
    return found;
}

std::size_t
SectoredCache::allocateLine(std::size_t set, const SetScan &found,
                            Addr block_addr, Writeback &wb)
{
    // Invalid lines take priority regardless of policy: first invalid
    // way in way order. The policy is only consulted when the set is
    // full, and its pick is implicitly evicted (the policy forgets the
    // way before returning; see mem/replacement.hh). LRU/FIFO's pick
    // came with the scan. An invalid line has no dirty sectors.
    std::size_t victim = found.victim != noWay
                             ? found.victim
                             : setBase(set) + replacement.victim(set);
    if (lineState[victim].dirtyMask != 0) {
        wb.valid = true;
        wb.blockAddr = lineTag(victim);
        wb.dirtyMask = lineState[victim].dirtyMask;
        ++statWritebacks;
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

    SetScan found = scan(set, block);
    std::size_t line = found.hit;
    if (line != noWay && (lineState[line].validMask & want) == want) {
        // Full sector hit. What (if anything) this refreshes is the
        // policy's call: LRU bumps recency, FIFO/SIEVE/S3FIFO don't
        // reorder.
        replacement.onHit(set, wayOf(set, line));
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
            line = allocateLine(set, found, block, out.writeback);
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
        line = allocateLine(set, found, block, out.writeback);
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
    SetScan found = scan(set, block);
    std::size_t line = found.hit;
    if (line == noWay)
        line = allocateLine(set, found, block, wb);
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
    replacement.onEvict(set, wayOf(set, line));
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
