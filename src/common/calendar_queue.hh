/**
 * @file
 * Bit-packed calendar queue for the simulator's SM ready-cycle events.
 *
 * The event-driven kernel loop keeps every SM's next-ready cycle in a
 * priority structure and repeatedly extracts the earliest one. The
 * traffic is calendar-shaped: almost every push lands a few cycles
 * ahead of the current minimum (+1 for back-to-back issue, +N for a
 * compute batch) with a tail of far pushes (window stalls waiting out
 * a DRAM round trip), and ids are small dense integers with at most a
 * handful of pending events. A comparison heap pays O(log n) sifts on
 * every hop; this structure is a timing wheel instead:
 *
 *   - the near future is a 64-slot ring, one cycle per slot, each
 *     slot a bitmask of ready ids — push is two OR instructions and a
 *     pop is a rotate + count-trailing-zeros on the slot-occupancy
 *     summary word, then a ctz inside the slot;
 *   - events at or beyond `cursor + 64` wait in a d-ary overflow heap
 *     and migrate into the ring as the cursor reaches them.
 *
 * Determinism contract: popMin and popBefore return events in
 * lexicographic (cycle, id) order — same-cycle events pop in ascending
 * id, which is exactly the SM-id issue order of the per-cycle reference
 * loop. Time never flows backwards: a pushed cycle must be >= the cycle
 * of the most recent pop (>= the clear() start before any pop); a
 * popBefore that returns false moves no clock.
 * Each id may have at most one pending event (slots are bitsets, so a
 * duplicate (cycle, id) would coalesce and desynchronize size()); the
 * kernel engine schedules exactly one event per SM, which satisfies
 * this by construction.
 */

#ifndef SHMGPU_COMMON_CALENDAR_QUEUE_HH
#define SHMGPU_COMMON_CALENDAR_QUEUE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/dary_heap.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace shmgpu
{

/** Timing-wheel calendar of (cycle, id) events over ids < numIds. */
class CalendarQueue
{
  public:
    explicit CalendarQueue(std::uint32_t num_ids)
        : numIds(num_ids), words((num_ids + 63) / 64),
          ring(static_cast<std::size_t>(wheelSlots) * words, 0)
    {
        shm_assert(num_ids > 0, "calendar needs at least one id");
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Reserve overflow-heap capacity (pushes never allocate after). */
    void reserve(std::size_t n) { overflow.reserve(n); }

    /** Forget every event and rebase the wheel at @p start. */
    void
    clear(Cycle start)
    {
        if (count > 0) {
            std::fill(ring.begin(), ring.end(), 0);
            overflow.clear();
        }
        occupied = 0;
        cursor = start;
        count = 0;
    }

    /** Schedule @p id at cycle @p at (must not precede the last pop). */
    void
    push(Cycle at, std::uint32_t id)
    {
        shm_assert(at >= cursor,
                   "calendar push at cycle {} behind the clock ({})", at,
                   cursor);
        if (at - cursor < wheelSlots) {
            std::uint32_t slot = at & slotMask;
            ring[slot * words + id / 64] |= std::uint64_t{1} << (id % 64);
            occupied |= std::uint64_t{1} << slot;
        } else {
            overflow.emplace(at, id);
        }
        ++count;
    }

    /**
     * Remove and return the minimum (cycle, id) event. The queue must
     * not be empty.
     */
    std::pair<Cycle, std::uint32_t>
    popMin()
    {
        shm_assert(count > 0, "popMin on an empty calendar");
        if (occupied == 0)
            jumpToOverflow();
        advanceToEarliestSlot();
        return {cursor, takeLowestId()};
    }

    /**
     * Remove the minimum (cycle, id) event into @p at and @p id if its
     * cycle is before @p limit; return false (and leave the queue as it
     * was) if the queue is empty or its earliest event is at or past
     * @p limit. A drain loop that stops at a time slice boundary or a
     * tenant wakeup thus finds the earliest slot once per event.
     */
    bool
    popBefore(Cycle limit, Cycle &at, std::uint32_t &id)
    {
        if (occupied == 0) {
            // Overflow events lie at or beyond cursor + 64, so with an
            // empty ring the overflow's top is the minimum.
            if (count == 0 || overflow.top().first >= limit)
                return false;
            jumpToOverflow();
        } else if (cursor + earliestSlotDelta() >= limit) {
            // Every ring event precedes every overflow event.
            return false;
        }
        advanceToEarliestSlot();
        at = cursor;
        id = takeLowestId();
        return true;
    }

  private:
    static constexpr std::uint32_t wheelSlots = 64;
    static constexpr std::uint32_t slotMask = wheelSlots - 1;

    /** Cycles from the cursor to the earliest occupied ring slot
     *  (the ring must not be empty). */
    std::uint32_t
    earliestSlotDelta() const
    {
        return static_cast<std::uint32_t>(
            std::countr_zero(std::rotr(occupied, cursor & slotMask)));
    }

    /** Nothing within a wheel turn: jump to the overflow's earliest
     *  event. (cursor, not cursor+1, so the migrated event lands in the
     *  ring's current slot.) */
    void
    jumpToOverflow()
    {
        cursor = overflow.top().first;
        migrateOverflow();
    }

    /** Move the cursor to the earliest occupied ring slot. */
    void
    advanceToEarliestSlot()
    {
        const std::uint32_t delta = earliestSlotDelta();
        if (delta > 0) {
            cursor += delta;
            // The window [cursor, cursor+64) grew: events parked in
            // the overflow heap may now belong in the ring. Everything
            // already in the ring is >= cursor, so the minimum is
            // still in the slot we just advanced to.
            migrateOverflow();
        }
    }

    /** Remove and return the lowest id of the cursor's (non-empty)
     *  slot. */
    std::uint32_t
    takeLowestId()
    {
        const std::uint32_t slot = cursor & slotMask;
        std::uint64_t *slot_words = &ring[slot * words];
        for (std::uint32_t w = 0;; ++w) {
            if (slot_words[w] == 0)
                continue;
            const std::uint32_t id =
                w * 64 + static_cast<std::uint32_t>(
                             std::countr_zero(slot_words[w]));
            slot_words[w] &= slot_words[w] - 1; // clear lowest set bit
            if (slotEmpty(slot_words))
                occupied &= ~(std::uint64_t{1} << slot);
            --count;
            return id;
        }
    }

    bool
    slotEmpty(const std::uint64_t *slot_words) const
    {
        std::uint64_t any = 0;
        for (std::uint32_t w = 0; w < words; ++w)
            any |= slot_words[w];
        return any == 0;
    }

    /** Move overflow events that now fall within the wheel window. */
    void
    migrateOverflow()
    {
        while (!overflow.empty() &&
               overflow.top().first - cursor < wheelSlots) {
            auto [at, id] = overflow.top();
            overflow.pop();
            std::uint32_t slot = at & slotMask;
            ring[slot * words + id / 64] |= std::uint64_t{1} << (id % 64);
            occupied |= std::uint64_t{1} << slot;
        }
    }

    std::uint32_t numIds;
    std::uint32_t words; //!< 64-bit words per slot bitmask
    /** wheelSlots x words bitmasks: ids ready in [cursor, cursor+64). */
    std::vector<std::uint64_t> ring;
    std::uint64_t occupied = 0; //!< summary bit per non-empty slot
    Cycle cursor = 0;           //!< cycle of the last pop (wheel base)
    /** Events at or beyond cursor + wheelSlots. */
    DaryHeap<std::pair<Cycle, std::uint32_t>> overflow;
    std::size_t count = 0;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_CALENDAR_QUEUE_HH
