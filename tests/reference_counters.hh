/**
 * @file
 * The hash-map counter store: the differential-test reference for
 * meta::CounterStore's dense demand-zero array.
 *
 * This is the store as it was before it went dense: counter blocks
 * live in a hash map keyed by counter-block index and are materialized
 * by the first write, so an absent block reads as all zero.
 * tests/test_meta_store_diff.cc holds the two equal after every
 * operation.
 */

#ifndef SHMGPU_TESTS_REFERENCE_COUNTERS_HH
#define SHMGPU_TESTS_REFERENCE_COUNTERS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"

namespace shmgpu::test
{

class ReferenceCounterStore
{
  public:
    explicit ReferenceCounterStore(const meta::MetadataLayout &meta_layout)
        : layout(meta_layout)
    {
    }

    meta::CounterValue
    read(LocalAddr data_addr) const
    {
        const CounterBlock *blk = find(layout.counterBlockIndex(data_addr));
        if (!blk)
            return {0, 0};
        return {blk->major, blk->minors[layout.minorSlot(data_addr)]};
    }

    meta::IncrementResult
    increment(LocalAddr data_addr)
    {
        const std::uint32_t slot = layout.minorSlot(data_addr);
        CounterBlock &blk = table[layout.counterBlockIndex(data_addr)];
        meta::IncrementResult res;
        if (blk.minors[slot] + 1ull >= minorMax) {
            ++blk.major;
            blk.minors.fill(0);
            res.minorOverflow = true;
            res.value = {blk.major, 0};
        } else {
            ++blk.minors[slot];
            res.value = {blk.major, blk.minors[slot]};
        }
        return res;
    }

    meta::IncrementResult
    devolveFromShared(LocalAddr data_addr, std::uint64_t shared_value)
    {
        const std::uint32_t slot = layout.minorSlot(data_addr);
        CounterBlock &blk = table[layout.counterBlockIndex(data_addr)];
        blk.major = shared_value;
        blk.minors.fill(0);
        blk.minors[slot] = 1;
        meta::IncrementResult res;
        res.value = {blk.major, 1};
        return res;
    }

    std::uint64_t
    maxMajor(LocalAddr base, std::uint64_t bytes) const
    {
        const std::uint64_t region_bytes =
            static_cast<std::uint64_t>(
                layout.params().blocksPerCounterBlock) *
            layout.params().blockBytes;
        std::uint64_t max_major = 0;
        const LocalAddr end =
            std::min<std::uint64_t>(base + bytes, layout.params().dataBytes);
        for (LocalAddr a = base; a < end; a += region_bytes)
            if (const CounterBlock *blk = find(layout.counterBlockIndex(a)))
                max_major = std::max(max_major, blk->major);
        return max_major;
    }

    void
    setRegionMajor(LocalAddr data_addr, std::uint64_t major)
    {
        CounterBlock &blk = table[layout.counterBlockIndex(data_addr)];
        blk.major = major;
        blk.minors.fill(0);
    }

    void
    bumpMajor(LocalAddr data_addr)
    {
        CounterBlock &blk = table[layout.counterBlockIndex(data_addr)];
        ++blk.major;
        blk.minors.fill(0);
    }

    void
    restore(LocalAddr data_addr, const meta::CounterValue &value)
    {
        CounterBlock &blk = table[layout.counterBlockIndex(data_addr)];
        blk.major = value.major;
        blk.minors[layout.minorSlot(data_addr)] =
            static_cast<std::uint8_t>(value.minor);
    }

    meta::CounterStore::CounterBlockImage
    serializeCounterBlock(std::uint64_t counter_block_idx) const
    {
        meta::CounterStore::CounterBlockImage out;
        const CounterBlock *blk = find(counter_block_idx);
        const CounterBlock zero;
        if (!blk)
            blk = &zero;
        for (int i = 0; i < 8; ++i)
            out[i] = static_cast<std::uint8_t>(blk->major >> (8 * i));
        std::copy(blk->minors.begin(), blk->minors.end(), out.begin() + 8);
        return out;
    }

    std::size_t materializedBlocks() const { return table.size(); }

  private:
    struct CounterBlock
    {
        std::uint64_t major = 0;
        std::array<std::uint8_t, 64> minors{};
    };

    static constexpr std::uint64_t minorMax = 128;

    /** The block at @p idx, or nullptr before its first write. */
    const CounterBlock *
    find(std::uint64_t idx) const
    {
        auto it = table.find(idx);
        return it == table.end() ? nullptr : &it->second;
    }

    const meta::MetadataLayout &layout;
    std::unordered_map<std::uint64_t, CounterBlock> table;
};

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_COUNTERS_HH
