#include "core/overrides.hh"

#include <cmath>
#include <cstdio>
#include <limits>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::core
{

namespace
{

/**
 * A count key that the simulator divides by or sizes arrays with:
 * fatal, located at the key's line, unless it lies in [1, 2^32 - 1].
 */
std::uint32_t
getCount(Config &config, const std::string &key, std::uint32_t fallback)
{
    const std::uint64_t v = config.getU64(key, fallback);
    if (v < 1 || v > std::numeric_limits<std::uint32_t>::max())
        shm_fatal("{}: '{}' must be between 1 and {}, got {}",
                  config.where(key), key,
                  std::numeric_limits<std::uint32_t>::max(), v);
    return static_cast<std::uint32_t>(v);
}

/** The location of whichever of @p a and @p b the file sets (@p a
 *  when both or neither), for a rule that joins two keys. */
std::string
whereEither(const Config &config, const std::string &a,
            const std::string &b)
{
    return config.has(a) || !config.has(b) ? config.where(a)
                                           : config.where(b);
}

} // namespace

void
applyGpuOverrides(Config &config, gpu::GpuParams &p)
{
    p.numSms = getCount(config, "gpu.num_sms", p.numSms);
    p.numPartitions =
        getCount(config, "gpu.num_partitions", p.numPartitions);
    p.smWindow = getCount(config, "gpu.sm_window", p.smWindow);
    p.maxCyclesPerKernel =
        config.getU64("gpu.max_cycles", p.maxCyclesPerKernel);
    if (p.maxCyclesPerKernel == 0)
        shm_fatal("{}: 'gpu.max_cycles' must be positive",
                  config.where("gpu.max_cycles"));
    p.l2BankBytes = config.getU64("gpu.l2_bank_bytes", p.l2BankBytes);
    const std::uint64_t assoc = config.getU64("gpu.l2_assoc", p.l2Assoc);
    // The L2 bank's 128 B lines split into assoc-way sets, a power of
    // two of them (mem/cache.cc).
    const std::uint64_t sets = assoc == 0 ? 0 : p.l2BankBytes / 128 / assoc;
    if (assoc > std::numeric_limits<std::uint32_t>::max() || sets < 1 ||
        !isPowerOf2(sets))
        shm_fatal("{}: 'gpu.l2_bank_bytes' / 128 / 'gpu.l2_assoc' must be "
                  "a power of two of at least 1 (the L2 sets per bank), "
                  "got {} / 128 / {}",
                  whereEither(config, "gpu.l2_assoc", "gpu.l2_bank_bytes"),
                  p.l2BankBytes, assoc);
    p.l2Assoc = static_cast<std::uint32_t>(assoc);
    p.l2HitLatency = config.getU64("gpu.l2_hit_latency", p.l2HitLatency);
    p.icntLatency = config.getU64("gpu.icnt_latency", p.icntLatency);
    p.victimMissRateThreshold = config.getDouble(
        "gpu.victim_threshold", p.victimMissRateThreshold);
    if (!(p.victimMissRateThreshold >= 0 && p.victimMissRateThreshold <= 1))
        shm_fatal("{}: 'gpu.victim_threshold' is a miss rate in [0, 1], "
                  "got {}",
                  config.where("gpu.victim_threshold"),
                  p.victimMissRateThreshold);
    // Fatal on unknown names, listing the valid set.
    p.l2Policy = mem::policyFromName(
        config.getString("cache.policy", mem::policyName(p.l2Policy)),
        config.where("cache.policy"));

    p.dram.bytesPerCycle =
        config.getDouble("dram.bytes_per_cycle", p.dram.bytesPerCycle);
    if (!(std::isfinite(p.dram.bytesPerCycle) && p.dram.bytesPerCycle > 0))
        shm_fatal("{}: 'dram.bytes_per_cycle' must be finite and greater "
                  "than 0, got {}",
                  config.where("dram.bytes_per_cycle"),
                  p.dram.bytesPerCycle);
    p.dram.numBanks = getCount(config, "dram.banks", p.dram.numBanks);
    p.dram.rowHitLatency =
        config.getU64("dram.row_hit_latency", p.dram.rowHitLatency);
    p.dram.rowMissLatency =
        config.getU64("dram.row_miss_latency", p.dram.rowMissLatency);
    if (p.dram.rowMissLatency < p.dram.rowHitLatency)
        shm_fatal("{}: 'dram.row_miss_latency' ({}) must be at least "
                  "'dram.row_hit_latency' ({})",
                  whereEither(config, "dram.row_miss_latency",
                              "dram.row_hit_latency"),
                  p.dram.rowMissLatency, p.dram.rowHitLatency);
    p.dram.writeQueueCycles =
        config.getU64("dram.write_queue_cycles",
                      p.dram.writeQueueCycles);
    p.dram.schedulerRowWindow =
        getCount(config, "dram.row_window", p.dram.schedulerRowWindow);
}

void
applyMeeOverrides(Config &config, mee::MeeParams &p)
{
    p.aesLatency = config.getU64("mee.aes_latency", p.aesLatency);
    p.hashLatency = config.getU64("mee.hash_latency", p.hashLatency);
    p.bmtArity = static_cast<std::uint32_t>(
        config.getU64("mee.bmt_arity", p.bmtArity));
    p.macBytes = static_cast<std::uint32_t>(
        config.getU64("mee.mac_bytes", p.macBytes));
    p.staticSpaceHints =
        config.getBool("mee.static_space_hints", p.staticSpaceHints);
    p.programmingModelHints = config.getBool(
        "mee.programming_model_hints", p.programmingModelHints);

    std::uint64_t mdc = config.getU64("mee.mdc_bytes",
                                      p.counterCache.sizeBytes);
    p.counterCache.sizeBytes = mdc;
    p.macCache.sizeBytes = mdc;
    p.bmtCache.sizeBytes = mdc;
    p.mdcPolicy = mem::policyFromName(
        config.getString("mee.mdc_policy", mem::policyName(p.mdcPolicy)),
        config.where("mee.mdc_policy"));

    p.streamDetector.trackers = static_cast<std::uint32_t>(
        config.getU64("mee.mats", p.streamDetector.trackers));
    p.streamDetector.chunkBytes =
        config.getU64("mee.chunk_bytes", p.streamDetector.chunkBytes);
    p.streamDetector.entries = static_cast<std::uint32_t>(
        config.getU64("mee.stream_entries", p.streamDetector.entries));
    p.streamDetector.timeoutCycles = config.getU64(
        "mee.mat_timeout", p.streamDetector.timeoutCycles);
    p.roDetector.entries = static_cast<std::uint32_t>(
        config.getU64("mee.ro_entries", p.roDetector.entries));
    p.roDetector.regionBytes =
        config.getU64("mee.ro_region_bytes", p.roDetector.regionBytes);
}

void
applyTraceOverrides(Config &config, trace::TraceParams &p)
{
    std::string classes = config.getString("trace.classes", "");
    if (!classes.empty())
        p.classMask =
            trace::parseClassMask(classes, config.where("trace.classes"));
}

void
applyCliOverrides(Config &config, gpu::GpuParams &gpu,
                  trace::TraceParams &trace, mem::PolicyKind &mdc_policy)
{
    applyGpuOverrides(config, gpu);
    applyTraceOverrides(config, trace);
    mdc_policy = mem::policyFromName(
        config.getString("mee.mdc_policy", mem::policyName(mdc_policy)),
        config.where("mee.mdc_policy"));
    for (const std::string &key : config.unconsumedKeys())
        if (key.starts_with("mee."))
            shm_fatal("{}: '{}' cannot be overridden here: the MEE "
                      "structure comes from --scheme (the only MEE key "
                      "accepted is mee.mdc_policy)",
                      config.where(key), key);
    config.assertConsumed();
}

} // namespace shmgpu::core
