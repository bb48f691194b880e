#include "gpu/partition.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::gpu
{

namespace
{

mem::DramParams
channelParams(const GpuParams &params, PartitionId id)
{
    mem::DramParams dp = params.dram;
    dp.name = "dram_p" + std::to_string(id);
    return dp;
}

} // namespace

Partition::Partition(const GpuParams &gpu_params,
                     const mee::MeeParams &mee_params, PartitionId id,
                     const meta::MetadataLayout *layout,
                     mee::DramRouter *router, const mem::AddressMap *map,
                     meta::CommonCounterTable *common_table)
    : gpuConfig(gpu_params), meeConfig(mee_params), partitionId(id),
      addrMap(map), bankMask(gpu_params.l2BanksPerPartition - 1),
      dram(channelParams(gpu_params, id)),
      engine(mee_params, id, layout, router,
             mee_params.victimL2 ? this : nullptr, map, common_table)
{
    shm_assert(isPowerOf2(gpu_params.l2BanksPerPartition),
               "partition {}: l2BanksPerPartition must be a power of two "
               "(got {}) — bank selection is shift/mask on 128 B sub-lines",
               id, gpu_params.l2BanksPerPartition);
    for (std::uint32_t b = 0; b < gpu_params.l2BanksPerPartition; ++b)
        banks.push_back(std::make_unique<L2Bank>(gpu_params, id, b));
}

void
Partition::handleWriteback(const mem::Writeback &wb, Cycle now)
{
    if (!wb.valid)
        return;
    std::uint32_t bytes =
        static_cast<std::uint32_t>(std::popcount(wb.dirtyMask)) * 32u;

    if (wb.blockAddr >= gpuConfig.protectedBytesPerPartition) {
        // A metadata line the MEE parked in the L2 victim space.
        // Its original traffic class is no longer known; attribute it
        // to the MAC stream, which dominates victim insertions.
        dram.enqueue(now, wb.blockAddr, bytes, mem::AccessType::Write,
                     mem::TrafficClass::Mac);
        return;
    }

    dram.enqueue(now, wb.blockAddr, bytes, mem::AccessType::Write,
                 mem::TrafficClass::Data);
    if (collector)
        collector->recordAccess(partitionId, wb.blockAddr, true, now);
    engine.onWrite(wb.blockAddr,
                   addrMap->toPhysical(partitionId, wb.blockAddr), now);
}

Cycle
Partition::read(LocalAddr local, Addr phys, Cycle now, MemSpace space)
{
    L2Bank &b = *banks[bankOf(local)];
    mem::CacheAccessResult res = b.accessData(local, false);
    const bool hit = res.outcome == mem::CacheOutcome::Hit;
    if (tracer)
        tracer->record(partitionId,
                       hit ? trace::EventKind::L2Hit
                           : trace::EventKind::L2Miss,
                       now, static_cast<std::uint16_t>(partitionId),
                       local);

    Cycle ready;
    if (hit) {
        ready = now + gpuConfig.l2HitLatency;
    } else {
        std::uint32_t bytes =
            static_cast<std::uint32_t>(std::popcount(res.fetchMask)) * 32u;
        Cycle start = now + gpuConfig.l2HitLatency;
        Cycle data_done = dram.enqueue(start, local, bytes,
                                       mem::AccessType::Read,
                                       mem::TrafficClass::Data)
                              .complete;
        if (collector)
            collector->recordAccess(partitionId, local, false, now);
        Cycle ctr_ready = engine.onRead(local, phys, start, space);
        ready = std::max(data_done, ctr_ready);
        if (meeConfig.secure)
            ready += meeConfig.aesLatency; // decrypt on the return path
        statReadMissLatency += ready - now;
        ++statReadMisses;
    }
    handleWriteback(res.writeback, now);
    return ready;
}

Cycle
Partition::serve(const mem::Transaction &t, Cycle arrive)
{
    if (t.type == mem::AccessType::Read)
        return read(t.local, t.phys, arrive, t.space);
    write(t.local, t.phys, arrive, t.space);
    return arrive;
}

void
Partition::write(LocalAddr local, Addr phys, Cycle now, MemSpace space)
{
    (void)phys;
    (void)space;
    L2Bank &b = *banks[bankOf(local)];
    mem::CacheAccessResult res = b.accessData(local, true);
    if (tracer)
        tracer->record(partitionId,
                       res.outcome == mem::CacheOutcome::Hit
                           ? trace::EventKind::L2Hit
                           : trace::EventKind::L2Miss,
                       now, static_cast<std::uint16_t>(partitionId),
                       local);
    handleWriteback(res.writeback, now);
}

void
Partition::hostCopy(LocalAddr base, std::uint64_t bytes,
                    bool declared_read_only)
{
    // Catches length underflow in the caller's range math: a copy
    // window must lie inside the protected space, never wrap.
    shm_assert(bytes <= gpuConfig.protectedBytesPerPartition &&
                   base <= gpuConfig.protectedBytesPerPartition - bytes,
               "host copy [{}, {}+{}) outside the protected space", base,
               base, bytes);
    engine.hostCopy(base, bytes, declared_read_only);
}

void
Partition::kernelBoundary(Cycle now)
{
    engine.kernelBoundary(now);
    for (auto &b : banks)
        b->resetSampling();
}

bool
Partition::victimActive() const
{
    if (!meeConfig.victimL2)
        return false;
    // Enable only when the sampled data miss rate is very high: the
    // L2 is then doing little for data and is better spent on
    // metadata (Section IV-D).
    for (const auto &b : banks) {
        if (!b->sampleWarm())
            return false;
        if (b->sampledMissRate() < gpuConfig.victimMissRateThreshold)
            return false;
    }
    return true;
}

bool
Partition::victimProbe(Addr meta_addr)
{
    return banks[bankOf(meta_addr)]->probeVictim(meta_addr);
}

void
Partition::victimInsert(Addr meta_addr, std::uint32_t valid_mask,
                        std::uint32_t dirty_mask, mem::TrafficClass cls,
                        Cycle now)
{
    (void)cls;
    if (tracer)
        tracer->record(partitionId, trace::EventKind::VictimFill, now,
                       static_cast<std::uint16_t>(partitionId), meta_addr);
    mem::Writeback wb =
        banks[bankOf(meta_addr)]->insertVictim(meta_addr, valid_mask,
                                               dirty_mask);
    handleWriteback(wb, now);
}

void
Partition::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, "p" + std::to_string(partitionId));
    statGroup.addScalar("read_miss_latency_total", &statReadMissLatency,
                        "sum of read-miss service latencies");
    statGroup.addScalar("read_misses", &statReadMisses,
                        "L2 read misses serviced");
    dram.regStats(&statGroup);
    engine.regStats(&statGroup);
    for (auto &b : banks)
        b->regStats(&statGroup);
}

} // namespace shmgpu::gpu
