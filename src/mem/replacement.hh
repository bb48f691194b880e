/**
 * @file
 * Line-replacement policies for SectoredCache.
 *
 * The L2 data banks and the three 2 KB security-metadata caches (the
 * paper's Table VI MDCs) pick victims through one ReplacementState per
 * cache, so scan-resistant policies are a configuration line
 * (`cache.policy` / `mee.mdc_policy`) instead of a code change:
 *
 *   lru      least recently used (default; what the paper assumes)
 *   fifo     insertion order, hits never refresh
 *   random   uniform pick from a per-cache seeded Rng stream
 *   s3fifo   small/main FIFO queues + ghost table (Yang et al.,
 *            SOSP'23): one-hit-wonders drain through the small queue,
 *            re-referenced blocks promote to main
 *   sieve    single FIFO with a lazy-promotion hand (Zhang et al.,
 *            NSDI'24): visited lines are spared in place, the hand
 *            sweeps from the oldest line toward the newest
 *
 * Every set's bookkeeping lives in flat per-cache arrays, indexed by
 * line (`set * assoc + way`) or by set, and each hook is a `switch` on
 * the policy: a cache makes a fixed number of allocations whatever its
 * set count, and the default policy's hooks are an inline stamp store.
 *
 * Contract with the owning cache:
 *
 *  - ways are set-local indices in [0, assoc);
 *  - the cache resolves invalid ways itself (first invalid way in way
 *    order wins); victim() is only consulted when every way of the set
 *    holds a valid line, and the returned way is implicitly evicted —
 *    the state drops its bookkeeping for it before returning;
 *  - LRU/FIFO victims are the set's oldest stamp() (first way on
 *    ties), which the cache reads during its own set scan instead of
 *    calling victim(); an invalidated line's stamp drops to 0, so the
 *    same scan also finds the first invalid way;
 *  - onInsert() fires whenever the cache stamps a line with fresh
 *    contents: miss installs, direct inserts, and write-validate installs —
 *    including re-fills of a line the policy already tracks (treated
 *    as a touch, never a duplicate queue entry);
 *  - onHit() fires on full-sector hits only (probe() never updates);
 *  - onEvict() fires only for external invalidation; eviction via
 *    victim() must not be double-reported.
 *
 * Determinism: every policy is a pure function of each set's operation
 * sequence (Random draws from an Rng seeded from
 * CacheParams::policySeed), so replacement decisions are
 * bit-reproducible across runs, platforms, and job counts. LRU/FIFO
 * stamps come from one per-cache clock; stamps are only compared
 * within a set, and the order of updates within a set is the same as
 * under a per-set clock.
 */

#ifndef SHMGPU_MEM_REPLACEMENT_HH
#define SHMGPU_MEM_REPLACEMENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace shmgpu::mem
{

/** Selectable replacement policies (config strings in lower case). */
enum class PolicyKind : std::uint8_t
{
    Lru,
    Fifo,
    Random,
    S3Fifo,
    Sieve
};

/** The config-string spelling of @p kind ("lru", "s3fifo", ...). */
const char *policyName(PolicyKind kind);

/** All policies, in declaration order (the valid config-string set). */
const std::vector<PolicyKind> &allPolicies();

/** The valid config strings, comma-joined (for error messages). */
std::string policyNameList();

/**
 * Parse a config string; returns false on unknown names. Matching is
 * exact (lower case), mirroring the scheme registry.
 */
bool tryPolicyFromName(const std::string &name, PolicyKind *out);

/** Parse a config string; fatal on unknown names, listing the valid
 *  set in the error, prefixed with @p where when given. */
PolicyKind policyFromName(const std::string &name,
                          const std::string &where = "");

/** The replacement bookkeeping of every set of one cache. */
class ReplacementState
{
  public:
    /**
     * State for @p num_sets sets of @p assoc ways (1..64) under
     * @p kind. @p seed seeds the stream Random draws from.
     */
    ReplacementState(PolicyKind kind, std::size_t num_sets,
                     std::uint32_t assoc, std::uint64_t seed);

    /** LRU and FIFO: the victim is the set's oldest stamp(). */
    bool
    stampOrdered() const
    {
        return policy == PolicyKind::Lru || policy == PolicyKind::Fifo;
    }

    /**
     * Stamp of line @p line (LRU/FIFO only): 0 for a line the state
     * does not track (never installed or invalidated), else a clock
     * value of at least 1; larger is newer.
     */
    std::uint64_t stamp(std::size_t line) const { return stamps[line]; }

    /** Full-sector hit on @p way of @p set. */
    void
    onHit(std::size_t set, std::uint32_t way)
    {
        std::size_t line = set * ways + way;
        switch (policy) {
          case PolicyKind::Lru: stamps[line] = ++clock; return;
          case PolicyKind::Fifo:
          case PolicyKind::Random: return;
          case PolicyKind::S3Fifo: touchS3Fifo(line); return;
          case PolicyKind::Sieve: sieveVisited[line] = 1; return;
        }
    }

    /**
     * @p way of @p set now holds fresh contents for @p block (fill,
     * insert, or write-validate install). Called both for first
     * installs and for refreshes of an already-tracked line.
     */
    void
    onInsert(std::size_t set, std::uint32_t way, Addr block)
    {
        switch (policy) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo: stamps[set * ways + way] = ++clock; return;
          case PolicyKind::Random: return;
          case PolicyKind::S3Fifo: insertS3Fifo(set, way, block); return;
          case PolicyKind::Sieve: insertSieve(set, way); return;
        }
    }

    /**
     * Choose the way of @p set to evict. Only called when every way is
     * valid. The returned way is evicted: the state forgets it before
     * returning.
     */
    std::uint32_t victim(std::size_t set);

    /** @p way of @p set was invalidated externally (victim-cache
     *  extraction, context-switch flush). */
    void
    onEvict(std::size_t set, std::uint32_t way)
    {
        switch (policy) {
          case PolicyKind::Lru:
          case PolicyKind::Fifo: stamps[set * ways + way] = 0; return;
          case PolicyKind::Random: return;
          case PolicyKind::S3Fifo: evictS3Fifo(set, way); return;
          case PolicyKind::Sieve: evictSieve(set, way); return;
        }
    }

  private:
    /** Way index sentinel in the one-byte SIEVE links. */
    static constexpr std::uint8_t noSlot = 0xFF;

    /** Which S3FIFO queue holds a line. */
    enum class Queue : std::uint8_t { None, Small, Main };

    /** One set's S3FIFO queue and ghost lengths. */
    struct S3FifoSet
    {
        std::uint8_t smallLen = 0;
        std::uint8_t mainLen = 0;
        std::uint8_t ghostLen = 0;
    };

    /** One set's SIEVE list ends and hand (way indices or noSlot). */
    struct SieveSet
    {
        std::uint8_t head = noSlot; //!< newest
        std::uint8_t tail = noSlot; //!< oldest
        std::uint8_t hand = noSlot;
    };

    void
    touchS3Fifo(std::size_t line)
    {
        if (s3Freq[line] < 3)
            ++s3Freq[line];
    }

    void insertS3Fifo(std::size_t set, std::uint32_t way, Addr block);
    void insertSieve(std::size_t set, std::uint32_t way);
    std::uint32_t victimS3Fifo(std::size_t set);
    std::uint32_t victimSieve(std::size_t set);
    void evictS3Fifo(std::size_t set, std::uint32_t way);
    void evictSieve(std::size_t set, std::uint32_t way);
    void unlinkSieve(std::size_t set, std::uint32_t way);

    PolicyKind policy;
    std::uint32_t ways;

    /** @{ LRU/FIFO: one stamp per line from a per-cache clock. */
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
    /** @} */

    /** Random: the cache-private stream, shared by all its sets. */
    Rng stream;

    /**
     * @{ S3FIFO. Per line: the block it holds, its saturating reference
     * count and its queue. Per set, each a slice of `ways` entries
     * oldest first: the small queue, the main queue (ways) and the
     * ghost FIFO (block addresses evicted from the small queue).
     */
    std::vector<Addr> s3Block;
    std::vector<std::uint8_t> s3Freq;
    std::vector<Queue> s3Where;
    std::vector<std::uint8_t> s3SmallQ;
    std::vector<std::uint8_t> s3MainQ;
    std::vector<Addr> s3Ghost;
    std::vector<S3FifoSet> s3Sets;
    std::uint32_t s3SmallTarget = 1;
    /** @} */

    /**
     * @{ SIEVE. Per line: links toward the newer and older neighbour,
     * the visited bit and list membership. Per set: the list ends and
     * the hand.
     */
    std::vector<std::uint8_t> sieveNewer;
    std::vector<std::uint8_t> sieveOlder;
    std::vector<std::uint8_t> sieveVisited;
    std::vector<std::uint8_t> sieveTracked;
    std::vector<SieveSet> sieveSets;
    /** @} */
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_REPLACEMENT_HH
