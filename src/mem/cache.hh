/**
 * @file
 * Generic sectored, set-associative, write-back cache.
 *
 * Used for the GPU L2 data banks and for the per-partition security
 * metadata caches (counter / MAC / BMT caches, Table VI of the paper).
 * The cache is a state model with immediate fills: a miss installs the
 * line at once and reports which sectors the owner must fetch, while
 * the owning component provides timing and issues the actual DRAM
 * traffic (fetch and eviction write-back).
 *
 * All line state is held in a fixed number of flat per-cache arrays
 * (tags, sector masks, replacement state), and one pass over the set
 * answers an access: the hit way, the first invalid way and, under
 * LRU/FIFO, the victim.
 */

#ifndef SHMGPU_MEM_CACHE_HH
#define SHMGPU_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/replacement.hh"

namespace shmgpu::mem
{

/** Static configuration of a SectoredCache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 2048;
    std::uint32_t blockBytes = 128;
    std::uint32_t sectorBytes = 32;
    std::uint32_t assoc = 4;
    /** Allocate a line on write miss (metadata caches use this). */
    bool writeAllocate = true;
    /**
     * When false, a full-sector write miss validates the sector in
     * place without fetching it from DRAM (GPU-style write-validate).
     * When true, a write miss must first fetch the sector (read-modify-
     * write semantics, used by nothing today but kept for generality).
     */
    bool fetchOnWriteMiss = false;
    /**
     * When true, a miss fetches (and installs) every sector of the
     * block, not just the missing ones (non-sectored metadata caches).
     */
    bool fetchWholeBlock = false;
    /** Line replacement policy (see mem/replacement.hh). */
    PolicyKind policy = PolicyKind::Lru;
    /**
     * Seed of the cache-private replacement Rng stream (used by the
     * random policy). Derived from config only — never from global
     * state — so replacement stays bit-reproducible.
     */
    std::uint64_t policySeed = 0x9E3779B97F4A7C15ull;

    bool operator==(const CacheParams &) const = default;
};

/** Outcome classification of a cache access. */
enum class CacheOutcome : std::uint8_t
{
    Hit,        //!< all requested sectors present
    Miss,       //!< sectors installed; the owner fetches fetchMask
    WriteNoFetch //!< write miss satisfied by write-validate (no DRAM read)
};

/** A dirty-line write-back produced by an eviction. */
struct Writeback
{
    bool valid = false;
    Addr blockAddr = 0;
    std::uint32_t dirtyMask = 0;
};

/** Result of SectoredCache::access(). */
struct CacheAccessResult
{
    CacheOutcome outcome = CacheOutcome::Hit;
    /** Sector mask (within the block) that must be fetched from DRAM.
     *  Nonzero only for outcome == Miss. */
    std::uint32_t fetchMask = 0;
    /** The dirty victim the install evicted, if any; the owner writes
     *  it back after issuing the fetch. */
    Writeback writeback;
};

/**
 * Sectored set-associative cache with pluggable replacement (one
 * ReplacementState per cache, LRU by default). Addresses are raw byte
 * addresses; the cache never interprets them beyond index/tag
 * extraction, so physical and partition-local address spaces both
 * work.
 */
class SectoredCache
{
  public:
    explicit SectoredCache(const CacheParams &params);

    /**
     * Access @p bytes starting at @p addr (must not cross a block
     * boundary; the caller splits larger accesses). A miss installs
     * the line immediately (choosing and evicting a victim if the
     * block is not present): the fetched sectors become valid, and
     * for a read-modify-write miss the written ones also dirty. The
     * result carries the sectors to fetch and the eviction, if any.
     */
    CacheAccessResult access(Addr addr, std::uint32_t bytes, bool is_write);

    /** Presence probe without LRU update. Returns valid-sector mask. */
    std::uint32_t probe(Addr addr) const;

    /**
     * Insert a block directly (victim-cache insertion path). May evict;
     * returns the write-back, if any. The block is inserted with all
     * sectors in @p valid_mask valid and @p dirty_mask dirty.
     */
    Writeback insert(Addr block_addr, std::uint32_t valid_mask,
                     std::uint32_t dirty_mask);

    /** Drop the block if present; returns its dirty write-back. */
    Writeback invalidate(Addr block_addr);

    /** Flush every dirty line (appends write-backs); leaves lines clean. */
    void flushDirty(std::vector<Writeback> &out);

    /**
     * Drop every line (appends dirty write-backs first), set by set in
     * way order. Replacement bookkeeping is notified per line
     * (onEvict), so no line stays tracked; S3FIFO's ghost FIFOs and
     * Random's stream position are kept. Context-switch MDC flushes
     * use this; the write-backs become DRAM traffic at the owner's
     * hands.
     */
    void invalidateAll(std::vector<Writeback> &out);

    const CacheParams &params() const { return config; }

    /** Register this cache's statistics under @p parent. */
    void regStats(stats::StatGroup *parent);

    /** @{ Raw statistic accessors for harness code. */
    std::uint64_t misses() const { return statMisses.value(); }
    std::uint64_t accesses() const { return statAccesses.value(); }
    /** @} */

  private:
    /**
     * Line state lives in flat per-cache arrays, a set's ways
     * contiguous: `tags` holds one word per line — the block address
     * with bit 0 set when valid, 0 when invalid (block addresses are
     * block-aligned, so bit 0 is free) — `lineState` the sector masks,
     * and the replacement state its own per-line arrays (LRU/FIFO
     * stamps, S3FIFO/SIEVE queues).
     */
    struct LineState
    {
        std::uint32_t validMask = 0;
        std::uint32_t dirtyMask = 0;
    };

    static constexpr std::size_t noWay = ~std::size_t{0};

    /** What one pass over a set finds (line indices or noWay). */
    struct SetScan
    {
        std::size_t hit = noWay; //!< the line holding the block
        /** The line an install claims: the first invalid one, else,
         *  under LRU/FIFO, the oldest; noWay asks the policy. */
        std::size_t victim = noWay;
    };

    /** All index math is shift/mask; the constructor asserts pow2. */
    Addr blockAlign(Addr addr) const { return addr & blockAlignMask; }
    std::size_t setIndex(Addr block_addr) const
    {
        return (block_addr >> blockShift) & setMask;
    }
    /** Index of @p set's first line in the line arrays. */
    std::size_t setBase(std::size_t set) const
    {
        return set * config.assoc;
    }
    std::uint32_t wayOf(std::size_t set, std::size_t line) const
    {
        return static_cast<std::uint32_t>(line - setBase(set));
    }
    std::uint32_t sectorMaskFor(Addr addr, std::uint32_t bytes) const;
    /** Line index of @p block_addr within @p set, or noWay. */
    std::size_t findLine(std::size_t set, Addr block_addr) const;
    /** One pass over @p set for @p block_addr; Stamped picks the
     *  victim by stamp. */
    template <bool Stamped>
    SetScan scanSet(std::size_t set, Addr block_addr) const;
    SetScan
    scan(std::size_t set, Addr block_addr) const
    {
        return replacement.stampOrdered() ? scanSet<true>(set, block_addr)
                                          : scanSet<false>(set, block_addr);
    }
    /**
     * Claim a line of @p set for @p block_addr: the scan's victim, or
     * else the policy's; an evicted line's dirty sectors land in
     * @p wb. The line comes back tagged with no sectors valid.
     */
    std::size_t allocateLine(std::size_t set, const SetScan &found,
                             Addr block_addr, Writeback &wb);
    /** Tell the policy that @p line of @p set holds fresh contents. */
    void noteInsert(std::size_t set, std::size_t line, Addr block_addr)
    {
        replacement.onInsert(set, wayOf(set, line), block_addr);
    }
    /** Invalidate @p line of @p set (the policy hears onEvict);
     *  returns its dirty write-back, if any. */
    Writeback dropLine(std::size_t set, std::size_t line);

    Addr lineTag(std::size_t line) const { return tags[line] & ~Addr{1}; }

    CacheParams config;
    std::size_t numSets;
    std::uint32_t sectorsPerBlock;
    unsigned blockShift;      //!< log2(blockBytes)
    unsigned sectorShift;     //!< log2(sectorBytes)
    Addr blockAlignMask;      //!< ~(blockBytes - 1)
    std::uint32_t blockOffsetMask; //!< blockBytes - 1
    std::uint32_t fullSectorMask;  //!< every sector of a block
    std::size_t setMask;      //!< numSets - 1
    std::vector<Addr> tags;        //!< tag|valid, numSets x assoc
    std::vector<LineState> lineState; //!< sector masks, same layout
    ReplacementState replacement;

    stats::StatGroup statGroup;
    stats::Scalar statAccesses;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statWriteNoFetch;
    stats::Scalar statWritebacks;
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_CACHE_HH
