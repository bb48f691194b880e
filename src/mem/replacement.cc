#include "mem/replacement.hh"

#include <algorithm>

#include "common/flat_map.hh"
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

/**
 * LRU and FIFO share the stamp machinery: a per-set monotone clock,
 * one stamp per way, victim = oldest stamp.
 * They differ only in whether a hit refreshes the stamp. Stamps are
 * compared only within this set, so a per-set clock reproduces the
 * pre-refactor per-cache clock's decisions exactly (the relative
 * order of updates within one set is the same under either clock).
 */
class StampPolicy : public ReplacementPolicy
{
  public:
    StampPolicy(std::uint32_t assoc, bool refresh_on_hit)
        : stamps(assoc, 0), refreshOnHit(refresh_on_hit)
    {
    }

    void
    onHit(std::uint32_t way) override
    {
        if (refreshOnHit)
            stamps[way] = ++clock;
    }

    void onInsert(std::uint32_t way, Addr) override
    {
        stamps[way] = ++clock;
    }

    std::uint32_t
    victim() override
    {
        // The oldest stamp; the first way wins ties.
        std::uint32_t best = 0;
        for (std::uint32_t w = 1; w < stamps.size(); ++w) {
            if (stamps[w] < stamps[best])
                best = w;
        }
        return best;
    }

    void onEvict(std::uint32_t) override {}

  private:
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
    bool refreshOnHit;
};

/** Uniform pick from the cache's shared seeded stream. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::uint32_t assoc, Rng *rng)
        : ways(assoc), stream(rng)
    {
        shm_assert(stream != nullptr,
                   "random replacement needs the cache's Rng stream");
    }

    void onHit(std::uint32_t) override {}
    void onInsert(std::uint32_t, Addr) override {}

    std::uint32_t
    victim() override
    {
        return static_cast<std::uint32_t>(stream->below(ways));
    }

    void onEvict(std::uint32_t) override {}

  private:
    std::uint64_t ways;
    Rng *stream;
};

/**
 * S3FIFO (Yang et al., SOSP'23) on one set. Ways are threaded through
 * two logical FIFO queues — a small probationary queue sized
 * max(1, assoc/8) and a main queue — plus a ghost table remembering
 * the last `assoc` blocks evicted from the small queue:
 *
 *  - a new block enters the small queue, unless its address is in the
 *    ghost table (a recent quick-demotion casualty), in which case it
 *    enters main directly;
 *  - eviction drains the small queue first (once it is at target
 *    size): a small-queue block referenced again since insertion
 *    promotes to main, an untouched one is evicted and remembered in
 *    the ghost table;
 *  - main evicts FIFO with lazy promotion — a referenced head is
 *    reinserted with its reference count decayed.
 *
 * Reference counts saturate at 3, as in the reference implementation.
 */
class S3FifoPolicy : public ReplacementPolicy
{
  public:
    explicit S3FifoPolicy(std::uint32_t assoc)
        : blockOf(assoc, 0), freq(assoc, 0), where(assoc, Queue::None),
          smallTarget(std::max(1u, assoc / 8))
    {
        smallQ.reserve(assoc);
        mainQ.reserve(assoc);
        ghostOrder.reserve(assoc);
        ghost.reserve(assoc);
    }

    void
    onHit(std::uint32_t way) override
    {
        freq[way] = std::min<std::uint8_t>(freq[way] + 1, 3);
    }

    void
    onInsert(std::uint32_t way, Addr block) override
    {
        if (where[way] != Queue::None) {
            // Refresh of a tracked line (re-fill / write-validate on
            // a partially valid line): count it as a reference.
            freq[way] = std::min<std::uint8_t>(freq[way] + 1, 3);
            return;
        }
        blockOf[way] = block;
        freq[way] = 0;
        if (ghost.find(block)) {
            ghostErase(block);
            mainQ.push_back(way);
            where[way] = Queue::Main;
        } else {
            smallQ.push_back(way);
            where[way] = Queue::Small;
        }
    }

    std::uint32_t
    victim() override
    {
        while (true) {
            if (!smallQ.empty() &&
                (smallQ.size() >= smallTarget || mainQ.empty())) {
                std::uint32_t w = smallQ.front();
                smallQ.erase(smallQ.begin());
                if (freq[w] > 0) {
                    // Re-referenced while probationary: promote.
                    mainQ.push_back(w);
                    where[w] = Queue::Main;
                    freq[w] = 0;
                    continue;
                }
                where[w] = Queue::None;
                ghostInsert(blockOf[w]);
                return w;
            }
            std::uint32_t w = mainQ.front();
            mainQ.erase(mainQ.begin());
            if (freq[w] > 0) {
                // Lazy promotion: decay and give it another lap.
                --freq[w];
                mainQ.push_back(w);
                continue;
            }
            where[w] = Queue::None;
            return w;
        }
    }

    void
    onEvict(std::uint32_t way) override
    {
        if (where[way] == Queue::None)
            return;
        auto &q = where[way] == Queue::Small ? smallQ : mainQ;
        for (std::size_t i = 0; i < q.size(); ++i) {
            if (q[i] == way) {
                q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
                break;
            }
        }
        where[way] = Queue::None;
    }

  private:
    enum class Queue : std::uint8_t { None, Small, Main };

    void
    ghostInsert(Addr block)
    {
        if (ghost.find(block)) {
            // Refresh: move to the back of the ghost FIFO.
            ghostEraseOrder(block);
        } else {
            if (ghostOrder.size() >= ghostCap()) {
                ghost.erase(ghostOrder.front());
                ghostOrder.erase(ghostOrder.begin());
            }
            ghost.emplace(block, 1);
        }
        ghostOrder.push_back(block);
    }

    void
    ghostErase(Addr block)
    {
        ghost.erase(block);
        ghostEraseOrder(block);
    }

    void
    ghostEraseOrder(Addr block)
    {
        for (std::size_t i = 0; i < ghostOrder.size(); ++i) {
            if (ghostOrder[i] == block) {
                ghostOrder.erase(ghostOrder.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    std::size_t ghostCap() const { return blockOf.size(); }

    std::vector<Addr> blockOf;
    std::vector<std::uint8_t> freq;
    std::vector<Queue> where;
    std::vector<std::uint32_t> smallQ; //!< front = oldest
    std::vector<std::uint32_t> mainQ;  //!< front = oldest
    /** Ghost FIFO: membership in the FlatMap, order in the vector. */
    FlatMap<std::uint8_t> ghost;
    std::vector<Addr> ghostOrder;
    std::size_t smallTarget;
};

/**
 * SIEVE (Zhang et al., NSDI'24) on one set: a single FIFO ordered
 * newest (head) to oldest (tail), one visited bit per way, and a hand
 * that survives evictions. The hand sweeps from the tail toward the
 * head; a visited line is spared in place (bit cleared, never moved),
 * the first unvisited line is evicted and the hand rests on its
 * next-newer neighbour (wrapping to the tail after the head).
 */
class SievePolicy : public ReplacementPolicy
{
  public:
    explicit SievePolicy(std::uint32_t assoc)
        : newer(assoc, noWay), older(assoc, noWay),
          visited(assoc, 0), tracked(assoc, 0)
    {
    }

    void
    onHit(std::uint32_t way) override
    {
        visited[way] = 1;
    }

    void
    onInsert(std::uint32_t way, Addr) override
    {
        if (tracked[way]) {
            // Refresh of a tracked line counts as a reference; SIEVE
            // never reorders on access.
            visited[way] = 1;
            return;
        }
        newer[way] = noWay;
        older[way] = head;
        if (head != noWay)
            newer[head] = way;
        head = way;
        if (tail == noWay)
            tail = way;
        visited[way] = 0;
        tracked[way] = 1;
    }

    std::uint32_t
    victim() override
    {
        std::uint32_t cand = hand != noWay ? hand : tail;
        while (visited[cand]) {
            visited[cand] = 0;
            cand = newer[cand] != noWay ? newer[cand] : tail;
        }
        hand = newer[cand]; // may be noWay: next sweep restarts at tail
        unlink(cand);
        return cand;
    }

    void
    onEvict(std::uint32_t way) override
    {
        if (!tracked[way])
            return;
        if (hand == way)
            hand = newer[way];
        unlink(way);
    }

  private:
    void
    unlink(std::uint32_t way)
    {
        if (newer[way] != noWay)
            older[newer[way]] = older[way];
        else
            head = older[way];
        if (older[way] != noWay)
            newer[older[way]] = newer[way];
        else
            tail = newer[way];
        newer[way] = older[way] = noWay;
        tracked[way] = 0;
        visited[way] = 0;
    }

    std::vector<std::uint32_t> newer; //!< toward the head (insertions)
    std::vector<std::uint32_t> older; //!< toward the tail (evictions)
    std::vector<std::uint8_t> visited;
    std::vector<std::uint8_t> tracked;
    std::uint32_t head = noWay;
    std::uint32_t tail = noWay;
    std::uint32_t hand = noWay;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(PolicyKind kind, std::uint32_t assoc, Rng *rng)
{
    shm_assert(assoc > 0 && assoc <= 64,
               "replacement policies support 1..64 ways (got {})", assoc);
    switch (kind) {
      case PolicyKind::Lru:
        return std::make_unique<StampPolicy>(assoc, true);
      case PolicyKind::Fifo:
        return std::make_unique<StampPolicy>(assoc, false);
      case PolicyKind::Random:
        return std::make_unique<RandomPolicy>(assoc, rng);
      case PolicyKind::S3Fifo:
        return std::make_unique<S3FifoPolicy>(assoc);
      case PolicyKind::Sieve:
        return std::make_unique<SievePolicy>(assoc);
    }
    shm_fatal("invalid PolicyKind {}", static_cast<int>(kind));
}

} // namespace shmgpu::mem
