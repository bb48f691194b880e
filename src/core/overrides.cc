#include "core/overrides.hh"

#include <cstdio>

#include "common/logging.hh"

namespace shmgpu::core
{

void
applyGpuOverrides(Config &config, gpu::GpuParams &p)
{
    p.numSms = static_cast<std::uint32_t>(
        config.getU64("gpu.num_sms", p.numSms));
    p.numPartitions = static_cast<std::uint32_t>(
        config.getU64("gpu.num_partitions", p.numPartitions));
    p.smWindow = static_cast<std::uint32_t>(
        config.getU64("gpu.sm_window", p.smWindow));
    p.maxCyclesPerKernel =
        config.getU64("gpu.max_cycles", p.maxCyclesPerKernel);
    p.l2BankBytes = config.getU64("gpu.l2_bank_bytes", p.l2BankBytes);
    p.l2Assoc = static_cast<std::uint32_t>(
        config.getU64("gpu.l2_assoc", p.l2Assoc));
    p.l2HitLatency = config.getU64("gpu.l2_hit_latency", p.l2HitLatency);
    p.icntLatency = config.getU64("gpu.icnt_latency", p.icntLatency);
    p.victimMissRateThreshold = config.getDouble(
        "gpu.victim_threshold", p.victimMissRateThreshold);
    // Fatal on unknown names, listing the valid set.
    p.l2Policy = mem::policyFromName(
        config.getString("cache.policy", mem::policyName(p.l2Policy)),
        config.where("cache.policy"));

    p.dram.bytesPerCycle =
        config.getDouble("dram.bytes_per_cycle", p.dram.bytesPerCycle);
    p.dram.numBanks = static_cast<unsigned>(
        config.getU64("dram.banks", p.dram.numBanks));
    p.dram.rowHitLatency =
        config.getU64("dram.row_hit_latency", p.dram.rowHitLatency);
    p.dram.rowMissLatency =
        config.getU64("dram.row_miss_latency", p.dram.rowMissLatency);
    p.dram.writeQueueCycles =
        config.getU64("dram.write_queue_cycles",
                      p.dram.writeQueueCycles);
    p.dram.schedulerRowWindow = static_cast<unsigned>(
        config.getU64("dram.row_window", p.dram.schedulerRowWindow));
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

void
applyOverridesFile(const std::string &path, gpu::GpuParams &gpu,
                   mee::MeeParams &mee)
{
    Config config = Config::fromFile(path);
    applyGpuOverrides(config, gpu);
    applyMeeOverrides(config, mee);
    trace::TraceParams scratch;
    applyTraceOverrides(config, scratch);
    config.assertConsumed();
}

} // namespace shmgpu::core
