/**
 * @file
 * A GPU memory partition: one GDDR channel, two L2 banks, and the
 * partition's Memory Encryption Engine (Fig. 6 of the paper). Also
 * implements the L2-as-victim-cache hooks the MEE uses (Section IV-D).
 */

#ifndef SHMGPU_GPU_PARTITION_HH
#define SHMGPU_GPU_PARTITION_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "detect/oracle.hh"
#include "gpu/l2bank.hh"
#include "gpu/params.hh"
#include "mee/engine.hh"
#include "mem/addr_map.hh"
#include "mem/dram.hh"
#include "mem/request.hh"

namespace shmgpu::gpu
{

/** One memory partition (L2 banks + MEE + GDDR channel). */
class Partition : public mee::VictimCacheIf
{
  public:
    Partition(const GpuParams &gpu_params, const mee::MeeParams &mee_params,
              PartitionId id, const meta::MetadataLayout *layout,
              mee::DramRouter *router, const mem::AddressMap *map,
              meta::CommonCounterTable *common_table);

    /**
     * SM read of the 32 B sector at partition-local @p local
     * (physical @p phys), arriving at the partition at @p now.
     * Returns the cycle the (decrypted) data leaves the partition.
     */
    Cycle read(LocalAddr local, Addr phys, Cycle now,
               MemSpace space = MemSpace::Global);

    /** SM write of the 32 B sector at @p local. Fire-and-forget. */
    void write(LocalAddr local, Addr phys, Cycle now,
               MemSpace space = MemSpace::Global);

    /**
     * Serve one transaction arriving at the partition at @p arrive:
     * dispatches to read()/write() from the message fields. Returns
     * the cycle data leaves the partition for reads, @p arrive for
     * writes (fire-and-forget).
     */
    Cycle serve(const mem::Transaction &t, Cycle arrive);

    /** Host copy covering [base, base+bytes) of this partition. */
    void hostCopy(LocalAddr base, std::uint64_t bytes,
                  bool declared_read_only = false);

    /** Kernel boundary: MEE bookkeeping + sampling reset. */
    void kernelBoundary(Cycle now);

    /** Tenant context switch: detector flush/reset (and optionally an
     *  MDC flush) in this partition's MEE. Returns the number of
     *  metadata write-backs the flush emitted. */
    std::uint64_t contextSwitch(Cycle now, bool flush_mdc)
    {
        return engine.contextSwitch(now, flush_mdc);
    }

    /** Attach a profile collector (pass 1) or truth profile. */
    void collectInto(detect::AccessProfile *profile) { collector = profile; }
    void setTruthProfile(const detect::TruthProfile *profile)
    {
        engine.setProfile(profile);
    }

    /** @{ mee::VictimCacheIf */
    bool victimActive() const override;
    bool victimProbe(Addr meta_addr) override;
    void victimInsert(Addr meta_addr, std::uint32_t valid_mask,
                      std::uint32_t dirty_mask, mem::TrafficClass cls,
                      Cycle now) override;
    Cycle victimHitLatency() const override
    {
        return gpuConfig.l2HitLatency;
    }
    /** @} */

    mem::DramChannel &channel() { return dram; }
    const mem::DramChannel &channel() const { return dram; }
    mee::MeeEngine &mee() { return engine; }
    const mee::MeeEngine &mee() const { return engine; }
    L2Bank &bank(std::uint32_t i) { return *banks.at(i); }
    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks.size());
    }

    void regStats(stats::StatGroup *parent);

    /** Attach the flight recorder; this partition emits on its own
     *  lane (lane id == partition id), as does its MEE. */
    void
    setTracer(trace::Tracer *t)
    {
        tracer = t;
        engine.setTracer(t);
    }

  private:
    /** Banks interleave on 128 B sub-lines; the bank count is asserted
     *  to be a power of two, so selection is a shift and a mask (same
     *  convention as SectoredCache set and AddressMap partition
     *  indexing). */
    static constexpr std::uint32_t bankShift = 7; // log2(128)

    std::uint32_t bankOf(Addr local) const
    {
        return static_cast<std::uint32_t>(local >> bankShift) & bankMask;
    }

    /** Route an evicted L2 line to DRAM (and the MEE, for data). */
    void handleWriteback(const mem::Writeback &wb, Cycle now);

    GpuParams gpuConfig;
    mee::MeeParams meeConfig;
    PartitionId partitionId;
    const mem::AddressMap *addrMap;
    std::uint32_t bankMask;
    mem::DramChannel dram;
    std::vector<std::unique_ptr<L2Bank>> banks;
    mee::MeeEngine engine;
    detect::AccessProfile *collector = nullptr;
    trace::Tracer *tracer = nullptr;

    stats::StatGroup statGroup;
    stats::Scalar statReadMissLatency;
    stats::Scalar statReadMisses;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_PARTITION_HH
