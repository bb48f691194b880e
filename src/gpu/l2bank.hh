/**
 * @file
 * One L2 cache bank: a sectored cache plus the set-sampling data-miss-
 * rate monitor and the victim-cache insertion path used when the L2
 * doubles as a victim cache for security metadata (Section IV-D).
 */

#ifndef SHMGPU_GPU_L2BANK_HH
#define SHMGPU_GPU_L2BANK_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/params.hh"
#include "mem/cache.hh"

namespace shmgpu::gpu
{

/** One L2 bank (the paper's baseline has two per partition). */
class L2Bank
{
  public:
    L2Bank(const GpuParams &params, PartitionId partition,
           std::uint32_t bank_index);

    /**
     * Access a 32 B data sector at partition-local @p local. Misses
     * are filled immediately (completion time is tracked by the
     * caller); the eviction, if any, is returned for write-back.
     */
    mem::CacheAccessResult accessData(LocalAddr local, bool is_write);

    /** @{ Victim-cache hooks (metadata lives above the data space). */
    bool probeVictim(Addr meta_addr);
    /** Insert a metadata line; returns the eviction, if any. */
    mem::Writeback insertVictim(Addr meta_addr, std::uint32_t valid_mask,
                                std::uint32_t dirty_mask);
    /** @} */

    /** Sampled data miss rate (set-sampling monitor). */
    double sampledMissRate() const;

    /** True once the monitor has enough samples to be trusted. */
    bool sampleWarm() const;

    /** Reset the sampling counters (each kernel boundary). */
    void resetSampling();

    const mem::SectoredCache &cache() const { return storage; }

    void regStats(stats::StatGroup *parent);

    /** @{ Aggregate counters for metrics. */
    std::uint64_t accesses() const { return statAccesses.value(); }
    std::uint64_t misses() const { return statMisses.value(); }
    /** @} */

  private:
    mem::SectoredCache storage;
    /** Address bits that must be zero for a sampled line. */
    std::uint64_t sampleMask = 0;
    std::uint64_t sampleWarmup;

    std::uint64_t sampleAccesses = 0;
    std::uint64_t sampleMisses = 0;

  public:
    /** Sampled accesses, never reset (for tests and debugging). */
    std::uint64_t sampleAccCum = 0;

  private:

    stats::StatGroup statGroup;
    stats::Scalar statAccesses;
    stats::Scalar statHits;
    stats::Scalar statMisses;
    stats::Scalar statWritebacks;
    stats::Scalar statVictimInsertions;
    stats::Scalar statVictimProbes;
    stats::Scalar statVictimProbeHits;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_L2BANK_HH
