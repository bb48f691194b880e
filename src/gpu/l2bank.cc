#include "gpu/l2bank.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::gpu
{

namespace
{

mem::CacheParams
l2CacheParams(const GpuParams &params, PartitionId partition,
              std::uint32_t bank_index)
{
    mem::CacheParams cp;
    cp.name = "l2_p" + std::to_string(partition) + "_b" +
              std::to_string(bank_index);
    cp.sizeBytes = params.l2BankBytes;
    cp.blockBytes = 128;
    cp.sectorBytes = 32;
    cp.assoc = params.l2Assoc;
    cp.writeAllocate = true;
    cp.fetchOnWriteMiss = false; // GPU write-validate
    cp.policy = params.l2Policy;
    // Per-bank random stream, derived from position only so results
    // are independent of sweep job placement.
    cp.policySeed ^= (static_cast<std::uint64_t>(partition) *
                          params.l2BanksPerPartition +
                      bank_index + 1) *
                     0x2545F4914F6CDD1Dull;
    return cp;
}

} // namespace

L2Bank::L2Bank(const GpuParams &params, PartitionId partition,
               std::uint32_t bank_index)
    : storage(l2CacheParams(params, partition, bank_index)),
      sampleWarmup(params.victimSampleWarmup)
{
    shm_assert(isPowerOf2(params.victimSampleRatio),
               "victimSampleRatio must be a power of two (got {})",
               params.victimSampleRatio);
    shm_assert(isPowerOf2(params.l2BanksPerPartition),
               "l2BanksPerPartition must be a power of two (got {})",
               params.l2BanksPerPartition);
    // A line is sampled when its per-bank line index,
    // local / blockBytes / banks, is a multiple of the ratio: its low
    // log2(ratio) bits, above the block and bank bits, are zero.
    sampleMask = (std::uint64_t{params.victimSampleRatio} - 1)
                 << (floorLog2(storage.params().blockBytes) +
                     floorLog2(params.l2BanksPerPartition));
}

mem::CacheAccessResult
L2Bank::accessData(LocalAddr local, bool is_write)
{
    ++statAccesses;

    // Set-sampling monitor: a 1-in-N subset of sets stands in for the
    // whole bank's data miss rate (Qureshi & Patt-style sampling).
    // Blocks interleave across the partition's banks, so the sampled
    // subset is chosen on the per-bank line index or one bank would
    // never see a sample.
    bool sampled = (local & sampleMask) == 0;

    mem::CacheAccessResult res = storage.access(local, 32, is_write);
    const bool hit = res.outcome == mem::CacheOutcome::Hit;
    if (hit)
        ++statHits;
    else if (res.outcome == mem::CacheOutcome::Miss)
        ++statMisses;
    if (res.writeback.valid)
        ++statWritebacks;
    if (sampled) {
        ++sampleAccesses;
        ++sampleAccCum;
        if (!hit)
            ++sampleMisses;
    }
    return res;
}

bool
L2Bank::probeVictim(Addr meta_addr)
{
    ++statVictimProbes;
    bool hit = storage.probe(meta_addr) != 0;
    if (hit)
        ++statVictimProbeHits;
    return hit;
}

mem::Writeback
L2Bank::insertVictim(Addr meta_addr, std::uint32_t valid_mask,
                     std::uint32_t dirty_mask)
{
    ++statVictimInsertions;
    return storage.insert(meta_addr, valid_mask, dirty_mask);
}

double
L2Bank::sampledMissRate() const
{
    if (sampleAccesses == 0)
        return 0.0;
    return static_cast<double>(sampleMisses) /
           static_cast<double>(sampleAccesses);
}

bool
L2Bank::sampleWarm() const
{
    return sampleAccesses >= sampleWarmup;
}

void
L2Bank::resetSampling()
{
    sampleAccesses = 0;
    sampleMisses = 0;
}

void
L2Bank::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, storage.params().name);
    statGroup.addScalar("accesses", &statAccesses, "data accesses");
    statGroup.addScalar("hits", &statHits, "data hits");
    statGroup.addScalar("misses", &statMisses, "data misses");
    statGroup.addScalar("writebacks", &statWritebacks, "dirty evictions");
    statGroup.addScalar("victim_insertions", &statVictimInsertions,
                        "metadata lines inserted");
    statGroup.addScalar("victim_probes", &statVictimProbes,
                        "metadata probes");
    statGroup.addScalar("victim_probe_hits", &statVictimProbeHits,
                        "metadata probe hits");
}

} // namespace shmgpu::gpu
