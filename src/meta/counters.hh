/**
 * @file
 * Encryption-counter state: split per-block counters, the on-chip
 * shared counter for read-only regions, and the common-counter table.
 *
 * Split counters (Yan et al., ISCA'06): a 128 B counter block holds one
 * 64-bit major counter plus 64 seven-bit minor counters, covering 64
 * data blocks (8 KB). A minor-counter overflow bumps the major counter
 * and forces re-encryption of the whole 8 KB region.
 *
 * The paper's shared counter (Section III-B / IV-B): all read-only
 * regions share one on-chip counter; their seed is (shared counter,
 * zero-padded minor). When a region transitions to not-read-only, the
 * shared value is propagated into the region's major counter and the
 * written block's minor counter starts at pad+1.
 */

#ifndef SHMGPU_META_COUNTERS_HH
#define SHMGPU_META_COUNTERS_HH

#include <array>
#include <cstdint>

#include "common/demand_zero.hh"
#include "common/flat_map.hh"
#include "common/types.hh"
#include "meta/layout.hh"

namespace shmgpu::meta
{

/** The (major, minor) pair used in an encryption seed. */
struct CounterValue
{
    std::uint64_t major = 0;
    std::uint64_t minor = 0;

    bool operator==(const CounterValue &) const = default;
};

/** Result of incrementing a block counter. */
struct IncrementResult
{
    CounterValue value;       //!< the post-increment counter
    bool minorOverflow = false; //!< the whole region must re-encrypt
};

/**
 * Functional storage for split counters over one protected space: a
 * dense demand-zero array of counter blocks, each with a stored flag
 * (set by every write, so an untouched block reads as the default
 * all-zero state and does not count as materialized).
 */
class CounterStore
{
  public:
    explicit CounterStore(const MetadataLayout &layout);

    /** Read the counter pair for the data block at @p data_addr. */
    CounterValue
    read(LocalAddr data_addr) const
    {
        const CounterBlock &blk =
            blocks[layout.counterBlockIndex(data_addr)];
        return {blk.major, blk.minors[layout.minorSlot(data_addr)]};
    }

    /** Increment the minor counter for a write-back to @p data_addr. */
    IncrementResult increment(LocalAddr data_addr);

    /**
     * Propagate the shared counter into a region transitioning from
     * read-only to not-read-only (Fig. 8): every block in the counter
     * block containing @p data_addr gets major = @p shared_value and
     * minor = pad (0); the block at @p data_addr is then incremented.
     */
    IncrementResult devolveFromShared(LocalAddr data_addr,
                                      std::uint64_t shared_value);

    /**
     * Maximum major counter over the counter blocks overlapping
     * [base, base+bytes) — the scan performed by the
     * InputReadOnlyReset API (Fig. 9).
     */
    std::uint64_t maxMajor(LocalAddr base, std::uint64_t bytes) const;

    /**
     * Set the major counter of the counter block containing
     * @p data_addr and zero its minors (shared-counter propagation
     * across a multi-counter-block region).
     */
    void setRegionMajor(LocalAddr data_addr, std::uint64_t major);

    /**
     * Split-counter overflow step: bump the major counter of the
     * block containing @p data_addr and reset all minors. The caller
     * re-encrypts the covered region.
     */
    void bumpMajor(LocalAddr data_addr);

    /**
     * Attack/test hook: overwrite the (off-chip) counter state for
     * @p data_addr — the block's major counter and this slot's minor —
     * emulating a physical replay of the counter block.
     */
    void restore(LocalAddr data_addr, const CounterValue &value);

    /** One serialized counter block: the little-endian major, then
     *  the 64 minors. */
    using CounterBlockImage = std::array<std::uint8_t, 8 + 64>;

    /** Serialize one counter block to bytes (the BMT leaf message). */
    CounterBlockImage
    serializeCounterBlock(std::uint64_t counter_block_idx) const;

    /** Number of materialized (written) counter blocks. */
    std::size_t materializedBlocks() const { return storedBlocks; }

    std::uint64_t minorLimit() const { return minorMax; }

  private:
    struct CounterBlock
    {
        std::uint64_t major = 0;
        std::array<std::uint8_t, 64> minors{};
    };

    /** The counter block at @p idx; panics past the last one. */
    const CounterBlock &block(std::uint64_t idx) const;
    /** The counter block of @p data_addr, marked stored. */
    CounterBlock &materialize(LocalAddr data_addr);

    const MetadataLayout &layout;
    DemandZeroArray<CounterBlock> blocks;
    DemandZeroArray<bool> stored;
    std::size_t storedBlocks = 0;
    /** 7-bit minor counters overflow at 128. */
    static constexpr std::uint64_t minorMax = 128;
};

/**
 * The on-chip shared counter register for read-only regions.
 *
 * Incremented at GPU-context/kernel boundaries where read-only data is
 * (re)initialized, which defeats cross-kernel replay (Section III-B).
 */
class SharedCounter
{
  public:
    std::uint64_t value() const { return counter; }

    /** Bump at a fresh context / read-only (re)initialization. */
    void advance() { ++counter; }

    /**
     * InputReadOnlyReset semantics: raise to at least
     * max(current, @p max_major_scanned) + 1 so no (shared, 0) pair can
     * collide with a previously used per-block counter.
     */
    void raiseAbove(std::uint64_t max_major_scanned);

  private:
    /**
     * Starts at 0 so that the read-only seed (shared, zero-pad) equals
     * the default per-block counter pair (0, 0): a region that a bit-
     * vector alias miss-classifies as not-read-only then still
     * decrypts correctly with its (never-written) per-block counters,
     * exactly as Section IV-B prescribes.
     */
    std::uint64_t counter = 0;
};

/**
 * Common-counter table (Na et al., HPCA'21), the Common_ctr baseline.
 *
 * Tracks, per counter-block region (8 KB), whether every block counter
 * still equals the common initialization value. Reads in a common
 * region need no counter fetch (and hence no BMT traversal). Writes
 * always persist their counters off-chip and devolve their region to
 * per-block state. This models the compression conservatively; the
 * full HPCA'21 design also re-compresses uniformly-written output
 * buffers, which Fig. 13 of the SHM paper shows is worth only ~1%
 * on top of PSSM.
 */
class CommonCounterTable
{
  public:
    explicit CommonCounterTable(const MetadataLayout &layout);

    /** True if reads of @p data_addr can skip the counter fetch. */
    bool isCommon(LocalAddr data_addr) const;

    /**
     * Record a write-back to @p data_addr. Writes always persist
     * their counter off-chip (so this returns false) and devolve the
     * region to per-block state.
     */
    bool recordWrite(LocalAddr data_addr);

    /** Kernel boundary (no-op hook kept for scheme symmetry). */
    void kernelBoundary();

    /** Fraction of regions still in common state (for stats). */
    double commonFraction() const;

  private:
    struct Region
    {
        bool common = true;
    };

    const MetadataLayout &layout;
    mutable FlatMap<Region> regions;
    std::uint64_t devolved = 0;
};

} // namespace shmgpu::meta

#endif // SHMGPU_META_COUNTERS_HH
