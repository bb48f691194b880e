#include "meta/counters.hh"

#include <algorithm>

#include "common/logging.hh"

namespace shmgpu::meta
{

CounterStore::CounterStore(const MetadataLayout &meta_layout)
    : layout(meta_layout), blocks(layout.numCounterBlocks()),
      stored(layout.numCounterBlocks())
{
}

const CounterStore::CounterBlock &
CounterStore::block(std::uint64_t idx) const
{
    shm_assert(idx < blocks.size(),
               "counter block {} beyond the {} counter blocks", idx,
               blocks.size());
    return blocks[idx];
}

CounterStore::CounterBlock &
CounterStore::materialize(LocalAddr data_addr)
{
    const std::uint64_t idx = layout.counterBlockIndex(data_addr);
    storedBlocks += !stored[idx];
    stored[idx] = true;
    return blocks[idx];
}

IncrementResult
CounterStore::increment(LocalAddr data_addr)
{
    std::uint32_t slot = layout.minorSlot(data_addr);
    CounterBlock &blk = materialize(data_addr);

    IncrementResult res;
    if (blk.minors[slot] + 1ull >= minorMax) {
        // Minor overflow: the whole 8 KB region re-encrypts under a new
        // major counter with minors reset (split-counter semantics).
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

IncrementResult
CounterStore::devolveFromShared(LocalAddr data_addr,
                                std::uint64_t shared_value)
{
    std::uint32_t slot = layout.minorSlot(data_addr);
    CounterBlock &blk = materialize(data_addr);

    blk.major = shared_value;
    blk.minors.fill(0); // the padding value
    blk.minors[slot] = 1;

    IncrementResult res;
    res.value = {blk.major, 1};
    return res;
}

std::uint64_t
CounterStore::maxMajor(LocalAddr base, std::uint64_t bytes) const
{
    std::uint64_t region_bytes =
        static_cast<std::uint64_t>(layout.params().blocksPerCounterBlock) *
        layout.params().blockBytes;
    std::uint64_t max_major = 0;
    LocalAddr end = std::min<std::uint64_t>(base + bytes,
                                            layout.params().dataBytes);
    for (LocalAddr a = base; a < end; a += region_bytes)
        max_major = std::max(max_major,
                             blocks[layout.counterBlockIndex(a)].major);
    return max_major;
}

void
CounterStore::setRegionMajor(LocalAddr data_addr, std::uint64_t major)
{
    CounterBlock &blk = materialize(data_addr);
    blk.major = major;
    blk.minors.fill(0);
}

void
CounterStore::bumpMajor(LocalAddr data_addr)
{
    CounterBlock &blk = materialize(data_addr);
    ++blk.major;
    blk.minors.fill(0);
}

void
CounterStore::restore(LocalAddr data_addr, const CounterValue &value)
{
    CounterBlock &blk = materialize(data_addr);
    blk.major = value.major;
    blk.minors[layout.minorSlot(data_addr)] =
        static_cast<std::uint8_t>(value.minor);
}

CounterStore::CounterBlockImage
CounterStore::serializeCounterBlock(std::uint64_t counter_block_idx) const
{
    const CounterBlock &blk = block(counter_block_idx);
    CounterBlockImage out;
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(blk.major >> (8 * i));
    std::copy(blk.minors.begin(), blk.minors.end(), out.begin() + 8);
    return out;
}

void
SharedCounter::raiseAbove(std::uint64_t max_major_scanned)
{
    counter = std::max(counter, max_major_scanned) + 1;
}

CommonCounterTable::CommonCounterTable(const MetadataLayout &meta_layout)
    : layout(meta_layout)
{
}

bool
CommonCounterTable::isCommon(LocalAddr data_addr) const
{
    const Region *region = regions.find(layout.counterBlockIndex(data_addr));
    return !region || region->common;
}

bool
CommonCounterTable::recordWrite(LocalAddr data_addr)
{
    Region &region = regions[layout.counterBlockIndex(data_addr)];
    if (region.common) {
        // Any kernel write leaves the region's counters non-uniform
        // with the initialization value: the region devolves to
        // per-block state. Compression therefore effectively covers
        // reads of regions that still hold their host-copied contents.
        region.common = false;
        ++devolved;
    }
    return false;
}

void
CommonCounterTable::kernelBoundary()
{
    // Devolution is permanent in this conservative model; the hook is
    // kept so schemes treat all counter tables uniformly.
}

double
CommonCounterTable::commonFraction() const
{
    if (regions.empty())
        return 1.0;
    std::size_t common = 0;
    for (const auto &[idx, region] : regions)
        if (region.common)
            ++common;
    return static_cast<double>(common) /
           static_cast<double>(regions.size());
}

} // namespace shmgpu::meta
