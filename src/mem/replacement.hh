/**
 * @file
 * Pluggable line-replacement policies for SectoredCache.
 *
 * The L2 data banks and the three 2 KB security-metadata caches (the
 * paper's Table VI MDCs) used to hard-code LRU selection inside the
 * cache's way scan. This module extracts the decision into a per-set
 * policy object — the `cacheAlgo` shape used by cache-simulation
 * codebases — so scan-resistant policies become a configuration line
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
 * Contract with the owning cache (what keeps the default-policy runs
 * bit-identical to the pre-refactor code):
 *
 *  - ways are set-local indices in [0, assoc);
 *  - the cache resolves invalid ways itself (first invalid way in way
 *    order wins); victim() is only consulted when every way holds a
 *    valid line, and the returned way is implicitly evicted — the
 *    policy drops its bookkeeping for it before returning;
 *  - onInsert() fires whenever the cache stamps a line with fresh
 *    contents: miss installs, direct inserts, and write-validate installs —
 *    including re-fills of a line the policy already tracks (treated
 *    as a touch, never a duplicate queue entry);
 *  - onHit() fires on full-sector hits only (probe() never updates);
 *  - onEvict() fires only for external invalidation; eviction via
 *    victim() must not be double-reported.
 *
 * Determinism: every policy is a pure function of its per-set
 * operation sequence (Random draws from an Rng owned by the cache and
 * seeded from CacheParams::policySeed), so replacement decisions are
 * bit-reproducible across runs, platforms, and job counts.
 */

#ifndef SHMGPU_MEM_REPLACEMENT_HH
#define SHMGPU_MEM_REPLACEMENT_HH

#include <cstdint>
#include <memory>
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

/**
 * One set's replacement state. The cache owns one instance per set
 * (policies like S3FIFO and SIEVE carry real per-set structure:
 * queues, ghost tables, a hand pointer).
 */
class ReplacementPolicy
{
  public:
    static constexpr std::uint32_t noWay = ~0u;

    virtual ~ReplacementPolicy() = default;

    /** Full-sector hit on @p way. */
    virtual void onHit(std::uint32_t way) = 0;

    /**
     * @p way now holds fresh contents for @p block (fill, insert, or
     * write-validate install). Called both for first installs and for
     * refreshes of an already-tracked line.
     */
    virtual void onInsert(std::uint32_t way, Addr block) = 0;

    /**
     * Choose the way to evict. Only called when every way is valid.
     * The returned way is evicted: the policy forgets it before
     * returning.
     */
    virtual std::uint32_t victim() = 0;

    /** @p way was invalidated externally (victim-cache extraction). */
    virtual void onEvict(std::uint32_t way) = 0;
};

/**
 * Build one set's policy object. @p rng is the cache's shared
 * replacement stream (used by Random; may be nullptr for the others)
 * and must outlive the policy.
 */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(PolicyKind kind, std::uint32_t assoc, Rng *rng);

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_REPLACEMENT_HH
