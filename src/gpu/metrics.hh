/**
 * @file
 * Aggregated results of one simulation run.
 */

#ifndef SHMGPU_GPU_METRICS_HH
#define SHMGPU_GPU_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/energy.hh"

namespace shmgpu::gpu
{

/** Everything the harnesses need from a finished run. */
struct RunMetrics
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;

    /** @{ DRAM bytes by traffic class (Fig. 14). */
    std::uint64_t bytesData = 0;
    std::uint64_t bytesCounter = 0;
    std::uint64_t bytesMac = 0;
    std::uint64_t bytesBmt = 0;
    std::uint64_t bytesExtra = 0;
    /** @} */

    std::uint64_t metadataBytes() const
    {
        return bytesCounter + bytesMac + bytesBmt + bytesExtra;
    }

    /** Metadata bandwidth overhead relative to data bandwidth. */
    double metadataOverhead() const
    {
        return bytesData ? static_cast<double>(metadataBytes()) /
                               static_cast<double>(bytesData)
                         : 0.0;
    }

    /** Achieved DRAM bandwidth / peak. */
    double bandwidthUtilization = 0;

    double l2MissRate = 0;

    /** @{ Fig. 10 tallies. */
    std::uint64_t roCorrect = 0;
    std::uint64_t roMpInit = 0;
    std::uint64_t roMpAliasing = 0;
    /** @} */

    /** @{ Fig. 11 tallies. */
    std::uint64_t strCorrect = 0;
    std::uint64_t strMpInit = 0;
    std::uint64_t strMpAliasing = 0;
    std::uint64_t strMpRuntimeRo = 0;
    std::uint64_t strMpRuntimeNonRo = 0;
    /** @} */

    /** @{ MEE activity. */
    std::uint64_t sharedCtrReads = 0;
    std::uint64_t commonCtrHits = 0;
    std::uint64_t roTransitions = 0;
    std::uint64_t chunkMacAccesses = 0;
    std::uint64_t blockMacAccesses = 0;
    std::uint64_t dualMacFallbacks = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t victimInserts = 0;
    /** @} */

    EnergyActivity energy;
};

/** One tenant's attributed share of a scenario run. */
struct TenantRunMetrics
{
    std::string name;
    Cycle arrivalCycle = 0;
    Cycle startCycle = 0;  //!< first dispatch
    Cycle finishCycle = 0; //!< last kernel retired
    std::uint64_t instructions = 0;
    std::uint64_t windowStalls = 0;
    std::uint64_t kernelsRun = 0;
    /** Dispatches of this tenant (1 + resumptions; time-sliced). */
    std::uint64_t dispatches = 0;
    /** Turnaround IPC: instructions over (finish - arrival). */
    double ipc = 0;

    /** @{ MEE activity attributed to the tenant: the change in its
     *  partitions' own counters over the spans it owned them. */
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t mdcAccesses = 0;
    std::uint64_t mdcHits = 0;
    double mdcHitRate = 0;
    std::uint64_t roCorrect = 0;
    std::uint64_t roMispredicts = 0;
    double roAccuracy = 0; //!< correct / (correct + mispredicted)
    std::uint64_t strCorrect = 0;
    std::uint64_t strMispredicts = 0;
    double strAccuracy = 0;
    /** @} */
};

/** A finished multi-tenant scenario run. */
struct ScenarioMetrics
{
    /** Whole-GPU aggregates (same shape as a single-workload run). */
    RunMetrics total;
    std::vector<TenantRunMetrics> tenants;
    std::uint64_t contextSwitches = 0;
    /** Dirty metadata lines written back by switch-time MDC flushes. */
    std::uint64_t mdcFlushWritebacks = 0;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_METRICS_HH
