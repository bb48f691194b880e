#include "mem/replacement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shmgpu::mem
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru: return "lru";
      case PolicyKind::Fifo: return "fifo";
      case PolicyKind::Random: return "random";
      case PolicyKind::S3Fifo: return "s3fifo";
      case PolicyKind::Sieve: return "sieve";
    }
    return "unknown";
}

const std::vector<PolicyKind> &
allPolicies()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Random,
        PolicyKind::S3Fifo, PolicyKind::Sieve};
    return kinds;
}

std::string
policyNameList()
{
    std::string out;
    for (PolicyKind k : allPolicies()) {
        if (!out.empty())
            out += ", ";
        out += policyName(k);
    }
    return out;
}

bool
tryPolicyFromName(const std::string &name, PolicyKind *out)
{
    for (PolicyKind k : allPolicies()) {
        if (name == policyName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

PolicyKind
policyFromName(const std::string &name, const std::string &where)
{
    PolicyKind kind;
    if (!tryPolicyFromName(name, &kind))
        shm_fatal("{}unknown replacement policy '{}' (expected one of: "
                  "{})",
                  locationPrefix(where), name, policyNameList());
    return kind;
}

namespace
{

/** Remove entry @p i of the @p len-entry slice at @p q, shifting the
 *  newer entries forward. */
template <typename T>
void
eraseAt(T *q, std::uint8_t &len, std::size_t i)
{
    std::copy(q + i + 1, q + len, q + i);
    --len;
}

/** Index of @p value in the @p len-entry slice at @p q, or @p len. */
template <typename T>
std::size_t
indexIn(const T *q, std::uint8_t len, T value)
{
    std::size_t i = 0;
    while (i < len && q[i] != value)
        ++i;
    return i;
}

} // namespace

ReplacementState::ReplacementState(PolicyKind kind, std::size_t num_sets,
                                   std::uint32_t assoc, std::uint64_t seed)
    : policy(kind), ways(assoc), stream(seed)
{
    shm_assert(assoc > 0 && assoc <= 64,
               "replacement policies support 1..64 ways (got {})", assoc);
    std::size_t lines = num_sets * assoc;
    switch (kind) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo:
        stamps.assign(lines, 0);
        break;
      case PolicyKind::Random:
        break;
      case PolicyKind::S3Fifo:
        s3Block.assign(lines, 0);
        s3Freq.assign(lines, 0);
        s3Where.assign(lines, Queue::None);
        s3SmallQ.assign(lines, 0);
        s3MainQ.assign(lines, 0);
        s3Ghost.assign(lines, 0);
        s3Sets.assign(num_sets, S3FifoSet{});
        s3SmallTarget = std::max(1u, assoc / 8);
        break;
      case PolicyKind::Sieve:
        sieveNewer.assign(lines, noSlot);
        sieveOlder.assign(lines, noSlot);
        sieveVisited.assign(lines, 0);
        sieveTracked.assign(lines, 0);
        sieveSets.assign(num_sets, SieveSet{});
        break;
      default:
        shm_fatal("invalid PolicyKind {}", static_cast<int>(kind));
    }
}

std::uint32_t
ReplacementState::victim(std::size_t set)
{
    switch (policy) {
      case PolicyKind::Lru:
      case PolicyKind::Fifo: {
        // The oldest stamp; the first way wins ties.
        const std::uint64_t *s = &stamps[set * ways];
        std::uint32_t best = 0;
        for (std::uint32_t w = 1; w < ways; ++w) {
            if (s[w] < s[best])
                best = w;
        }
        return best;
      }
      case PolicyKind::Random:
        return static_cast<std::uint32_t>(stream.below(ways));
      case PolicyKind::S3Fifo:
        return victimS3Fifo(set);
      case PolicyKind::Sieve:
        return victimSieve(set);
    }
    shm_fatal("invalid PolicyKind {}", static_cast<int>(policy));
}

/*
 * S3FIFO (Yang et al., SOSP'23) on one set. Ways are threaded through
 * two FIFO queues — a small probationary queue sized max(1, assoc/8)
 * and a main queue — plus a ghost FIFO remembering the last `assoc`
 * blocks evicted from the small queue:
 *
 *  - a new block enters the small queue, unless its address is in the
 *    ghost FIFO (a recent quick-demotion casualty), in which case it
 *    enters main directly;
 *  - eviction drains the small queue first (once it is at target
 *    size): a small-queue block referenced again since insertion
 *    promotes to main, an untouched one is evicted and remembered in
 *    the ghost FIFO;
 *  - main evicts FIFO with lazy promotion — a referenced head is
 *    reinserted with its reference count decayed.
 *
 * Reference counts saturate at 3, as in the reference implementation.
 */
void
ReplacementState::insertS3Fifo(std::size_t set, std::uint32_t way,
                               Addr block)
{
    std::size_t line = set * ways + way;
    if (s3Where[line] != Queue::None) {
        // Refresh of a tracked line (re-fill / write-validate on a
        // partially valid line): count it as a reference.
        touchS3Fifo(line);
        return;
    }
    S3FifoSet &s = s3Sets[set];
    std::size_t base = set * ways;
    s3Block[line] = block;
    s3Freq[line] = 0;
    Addr *ghost = &s3Ghost[base];
    std::size_t g = indexIn<Addr>(ghost, s.ghostLen, block);
    if (g < s.ghostLen) {
        // A recent quick-demotion casualty: straight to main.
        eraseAt(ghost, s.ghostLen, g);
        s3MainQ[base + s.mainLen++] = static_cast<std::uint8_t>(way);
        s3Where[line] = Queue::Main;
    } else {
        s3SmallQ[base + s.smallLen++] = static_cast<std::uint8_t>(way);
        s3Where[line] = Queue::Small;
    }
}

std::uint32_t
ReplacementState::victimS3Fifo(std::size_t set)
{
    S3FifoSet &s = s3Sets[set];
    std::size_t base = set * ways;
    std::uint8_t *small_q = &s3SmallQ[base];
    std::uint8_t *main_q = &s3MainQ[base];
    while (true) {
        if (s.smallLen != 0 &&
            (s.smallLen >= s3SmallTarget || s.mainLen == 0)) {
            std::uint32_t w = small_q[0];
            eraseAt(small_q, s.smallLen, 0);
            std::size_t line = base + w;
            if (s3Freq[line] > 0) {
                // Re-referenced while probationary: promote.
                main_q[s.mainLen++] = static_cast<std::uint8_t>(w);
                s3Where[line] = Queue::Main;
                s3Freq[line] = 0;
                continue;
            }
            s3Where[line] = Queue::None;
            // Remember the casualty. It is not in the ghost FIFO yet:
            // a block leaves the FIFO when it is installed again.
            Addr *ghost = &s3Ghost[base];
            if (s.ghostLen >= ways)
                eraseAt(ghost, s.ghostLen, 0); // full: forget the oldest
            ghost[s.ghostLen++] = s3Block[line];
            return w;
        }
        std::uint32_t w = main_q[0];
        eraseAt(main_q, s.mainLen, 0);
        std::size_t line = base + w;
        if (s3Freq[line] > 0) {
            // Lazy promotion: decay and give it another lap.
            --s3Freq[line];
            main_q[s.mainLen++] = static_cast<std::uint8_t>(w);
            continue;
        }
        s3Where[line] = Queue::None;
        return w;
    }
}

void
ReplacementState::evictS3Fifo(std::size_t set, std::uint32_t way)
{
    std::size_t base = set * ways;
    std::size_t line = base + way;
    if (s3Where[line] == Queue::None)
        return;
    S3FifoSet &s = s3Sets[set];
    bool in_small = s3Where[line] == Queue::Small;
    std::uint8_t *q = in_small ? &s3SmallQ[base] : &s3MainQ[base];
    std::uint8_t &len = in_small ? s.smallLen : s.mainLen;
    std::size_t i =
        indexIn<std::uint8_t>(q, len, static_cast<std::uint8_t>(way));
    if (i < len)
        eraseAt(q, len, i);
    s3Where[line] = Queue::None;
}

/*
 * SIEVE (Zhang et al., NSDI'24) on one set: a single FIFO ordered
 * newest (head) to oldest (tail), one visited bit per way, and a hand
 * that survives evictions. The hand sweeps from the tail toward the
 * head; a visited line is spared in place (bit cleared, never moved),
 * the first unvisited line is evicted and the hand rests on its
 * next-newer neighbour (wrapping to the tail after the head).
 */
void
ReplacementState::insertSieve(std::size_t set, std::uint32_t way)
{
    std::size_t line = set * ways + way;
    if (sieveTracked[line]) {
        // Refresh of a tracked line counts as a reference; SIEVE never
        // reorders on access.
        sieveVisited[line] = 1;
        return;
    }
    SieveSet &s = sieveSets[set];
    std::size_t base = set * ways;
    sieveNewer[line] = noSlot;
    sieveOlder[line] = s.head;
    if (s.head != noSlot)
        sieveNewer[base + s.head] = static_cast<std::uint8_t>(way);
    s.head = static_cast<std::uint8_t>(way);
    if (s.tail == noSlot)
        s.tail = static_cast<std::uint8_t>(way);
    sieveVisited[line] = 0;
    sieveTracked[line] = 1;
}

std::uint32_t
ReplacementState::victimSieve(std::size_t set)
{
    SieveSet &s = sieveSets[set];
    std::size_t base = set * ways;
    std::uint8_t cand = s.hand != noSlot ? s.hand : s.tail;
    while (sieveVisited[base + cand]) {
        sieveVisited[base + cand] = 0;
        std::uint8_t next = sieveNewer[base + cand];
        cand = next != noSlot ? next : s.tail;
    }
    s.hand = sieveNewer[base + cand]; // noSlot: next sweep starts at tail
    unlinkSieve(set, cand);
    return cand;
}

void
ReplacementState::evictSieve(std::size_t set, std::uint32_t way)
{
    std::size_t line = set * ways + way;
    if (!sieveTracked[line])
        return;
    SieveSet &s = sieveSets[set];
    if (s.hand == way)
        s.hand = sieveNewer[line];
    unlinkSieve(set, way);
}

void
ReplacementState::unlinkSieve(std::size_t set, std::uint32_t way)
{
    SieveSet &s = sieveSets[set];
    std::size_t base = set * ways;
    std::size_t line = base + way;
    std::uint8_t newer = sieveNewer[line];
    std::uint8_t older = sieveOlder[line];
    if (newer != noSlot)
        sieveOlder[base + newer] = older;
    else
        s.head = older;
    if (older != noSlot)
        sieveNewer[base + older] = newer;
    else
        s.tail = newer;
    sieveNewer[line] = sieveOlder[line] = noSlot;
    sieveTracked[line] = 0;
    sieveVisited[line] = 0;
}

} // namespace shmgpu::mem
