/**
 * @file
 * Open-addressing hash map for the simulator's per-access hot paths.
 *
 * The per-cell simulation speed is bound by hash-table work on every
 * simulated memory access (tracker slots, chunk MAC states, metadata
 * tables). std::unordered_map pays a pointer chase per node plus a
 * prime-modulo per lookup; FlatMap stores slots contiguously in a
 * power-of-two table with linear probing, so the common hit costs one
 * multiply-mix, one masked index, and (usually) one cache line.
 *
 * Keys are 64-bit integers (addresses and indices — every hot table in
 * the simulator keys on one). Deleted slots become tombstones that are
 * reused by later inserts, so erase/insert churn (tracker alloc/free)
 * does not grow the table.
 *
 * Determinism: the table layout, and therefore iteration order, is a
 * pure function of the operation sequence — no pointers, randomized
 * seeds, or allocation addresses are involved. Two maps fed the same
 * inserts/erases in the same order iterate identically on every
 * platform, which keeps stats/JSON output reproducible.
 */

#ifndef SHMGPU_COMMON_FLAT_MAP_HH
#define SHMGPU_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace shmgpu
{

/** Open-addressing u64 -> V hash map (linear probing, pow2 table). */
template <typename V>
class FlatMap
{
  public:
    FlatMap() = default;

    /** @{ Size / capacity. */
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Number of slots in the table (0 before the first insert). */
    std::size_t capacity() const { return slots.size(); }
    /** @} */

    /** Pointer to the value for @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        if (count == 0)
            return nullptr;
        std::size_t i = probeStart(key);
        while (true) {
            std::uint8_t s = state[i];
            if (s == Empty)
                return nullptr;
            if (s == Full && slots[i].key == key)
                return &slots[i].value;
            i = (i + 1) & mask;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const { return find(key) != nullptr; }

    /** Value for @p key, default-constructed on first use. */
    V &
    operator[](std::uint64_t key)
    {
        return *emplace(key).first;
    }

    /**
     * Insert a default-constructed value for @p key if absent.
     * Returns {pointer to value, whether an insert happened}. Extra
     * arguments construct the value in place on insertion.
     */
    template <typename... Args>
    std::pair<V *, bool>
    emplace(std::uint64_t key, Args &&...args)
    {
        growIfNeeded();
        std::size_t i = probeStart(key);
        std::size_t first_tomb = npos;
        while (true) {
            std::uint8_t s = state[i];
            if (s == Empty)
                break;
            if (s == Full && slots[i].key == key)
                return {&slots[i].value, false};
            if (s == Tomb && first_tomb == npos)
                first_tomb = i;
            i = (i + 1) & mask;
        }
        if (first_tomb != npos) {
            i = first_tomb; // reuse the tombstone; `used` already counts it
        } else {
            ++used;
        }
        state[i] = Full;
        slots[i].key = key;
        slots[i].value = V(std::forward<Args>(args)...);
        ++count;
        return {&slots[i].value, true};
    }

    /** Drop @p key; true when it was present. */
    bool
    erase(std::uint64_t key)
    {
        if (count == 0)
            return false;
        std::size_t i = probeStart(key);
        while (true) {
            std::uint8_t s = state[i];
            if (s == Empty)
                return false;
            if (s == Full && slots[i].key == key) {
                state[i] = Tomb;
                slots[i].value = V(); // release held resources early
                --count;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /** Remove every entry; the table keeps its capacity. */
    void
    clear()
    {
        std::fill(state.begin(), state.end(),
                  static_cast<std::uint8_t>(Empty));
        for (auto &slot : slots)
            slot.value = V();
        count = 0;
        used = 0;
    }

    /** Pre-size the table for @p n entries without rehashing later. */
    void
    reserve(std::size_t n)
    {
        std::size_t want = minCapacity;
        // Keep the load factor at or below maxLoad after n inserts.
        while (want * maxLoadNum < n * maxLoadDen)
            want <<= 1;
        if (want > slots.size())
            rehash(want);
    }

    /** @{ Slot-order iteration (deterministic; see file comment). */
    class const_iterator
    {
      public:
        const_iterator(const FlatMap *owner, std::size_t index)
            : map(owner), i(index)
        {
            skipHoles();
        }

        std::pair<const std::uint64_t &, const V &>
        operator*() const
        {
            return {map->slots[i].key, map->slots[i].value};
        }

        const_iterator &
        operator++()
        {
            ++i;
            skipHoles();
            return *this;
        }

        bool operator==(const const_iterator &o) const { return i == o.i; }
        bool operator!=(const const_iterator &o) const { return i != o.i; }

      private:
        void
        skipHoles()
        {
            while (i < map->state.size() && map->state[i] != Full)
                ++i;
        }

        const FlatMap *map;
        std::size_t i;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const
    {
        return const_iterator(this, state.size());
    }
    /** @} */

  private:
    enum SlotState : std::uint8_t { Empty = 0, Full = 1, Tomb = 2 };

    struct Slot
    {
        std::uint64_t key = 0;
        V value{};
    };

    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::size_t minCapacity = 16;
    /** Grow when (full + tombstones) exceeds 7/8 of the table. */
    static constexpr std::size_t maxLoadNum = 7;
    static constexpr std::size_t maxLoadDen = 8;

    /** SplitMix64 finalizer: full-avalanche mix before masking. */
    static std::size_t
    mix(std::uint64_t k)
    {
        k ^= k >> 33;
        k *= 0xFF51AFD7ED558CCDull;
        k ^= k >> 33;
        k *= 0xC4CEB9FE1A85EC53ull;
        k ^= k >> 33;
        return static_cast<std::size_t>(k);
    }

    std::size_t probeStart(std::uint64_t key) const
    {
        return mix(key) & mask;
    }

    void
    growIfNeeded()
    {
        if (slots.empty()) {
            rehash(minCapacity);
            return;
        }
        if ((used + 1) * maxLoadDen > slots.size() * maxLoadNum) {
            // Mostly-tombstone tables rehash in place; genuinely full
            // ones double.
            std::size_t want = (count + 1) * maxLoadDen >
                                       slots.size() * maxLoadNum / 2
                                   ? slots.size() * 2
                                   : slots.size();
            rehash(want);
        }
    }

    void
    rehash(std::size_t new_capacity)
    {
        std::vector<Slot> old_slots = std::move(slots);
        std::vector<std::uint8_t> old_state = std::move(state);
        slots.assign(new_capacity, Slot{});
        state.assign(new_capacity, static_cast<std::uint8_t>(Empty));
        mask = new_capacity - 1;
        used = count;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_state[i] != Full)
                continue;
            std::size_t j = probeStart(old_slots[i].key);
            while (state[j] == Full)
                j = (j + 1) & mask;
            state[j] = Full;
            slots[j].key = old_slots[i].key;
            slots[j].value = std::move(old_slots[i].value);
        }
    }

    std::vector<Slot> slots;
    std::vector<std::uint8_t> state;
    std::size_t count = 0; //!< Full slots
    std::size_t used = 0;  //!< Full + Tomb slots
    std::size_t mask = 0;  //!< capacity - 1
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_FLAT_MAP_HH
