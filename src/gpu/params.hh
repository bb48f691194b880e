/**
 * @file
 * Top-level GPU configuration (Table V of the paper: an Nvidia-Turing-
 * like part — 30 SMs at 1.506 GHz, 12 GDDR partitions totalling
 * 336 GB/s, 3 MB of L2 in two banks per partition).
 */

#ifndef SHMGPU_GPU_PARAMS_HH
#define SHMGPU_GPU_PARAMS_HH

#include <cstdint>

#include "common/types.hh"
#include "gpu/interconnect.hh"
#include "mem/dram.hh"
#include "mem/replacement.hh"

namespace shmgpu::gpu
{

/** Static GPU configuration. */
struct GpuParams
{
    std::uint32_t numSms = 30;
    std::uint32_t numPartitions = 12;

    /** @{ L2: 2 banks/partition, 128 KB each. */
    std::uint32_t l2BanksPerPartition = 2;
    std::uint64_t l2BankBytes = 128 * 1024;
    std::uint32_t l2Assoc = 16;
    Cycle l2HitLatency = 32;
    /** L2 line replacement (`cache.policy` / `--policy`). The victim
     *  miss-rate monitor is policy-agnostic, so the 90 % trigger works
     *  under scan-resistant policies too. */
    mem::PolicyKind l2Policy = mem::PolicyKind::Lru;
    /** @} */

    /** Interconnect latency, each direction. */
    Cycle icntLatency = 20;
    /** Crossbar configuration (latency mirrors icntLatency). */
    InterconnectParams icnt;

    /** Outstanding-load window per SM (latency tolerance). */
    std::uint32_t smWindow = 64;

    /** Physical-address interleaving granularity over partitions. */
    std::uint64_t interleaveBytes = 256;

    /** Protected device memory per partition (4 GB total / 12,
     *  rounded; only the geometry matters — state is lazy). */
    std::uint64_t protectedBytesPerPartition = 320ull << 20;

    /** GDDR channel model; bytesPerCycle is per partition in core
     *  cycles (336 GB/s / 12 partitions / 1.506 GHz ~= 18.6; we use 16
     *  so a 32 B sector is exactly two bus cycles). */
    mem::DramParams dram{.name = "dram", .bytesPerCycle = 16.0};

    /** Per-kernel simulated-cycle budget (runaway protection). */
    Cycle maxCyclesPerKernel = 120000;

    /** @{ L2-victim-cache controls (Section IV-D). */
    double victimMissRateThreshold = 0.90;
    /** 1-in-N set sampling ratio for the data-miss-rate monitor (a
     *  power of two: the sampled-set test is a mask). */
    std::uint32_t victimSampleRatio = 32;
    /** Minimum sampled accesses before the monitor may trigger. */
    std::uint64_t victimSampleWarmup = 64;
    /** @} */

    bool operator==(const GpuParams &) const = default;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_PARAMS_HH
