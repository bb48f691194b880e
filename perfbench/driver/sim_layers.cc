#include "sim_layers.hh"

#include "common/profile.hh"

namespace perfbench
{

void
SimLayers::add(const std::string &scheme,
               const shmgpu::gpu::RunMetrics &m, double host_seconds)
{
    SchemeTotals &t = schemes[scheme];
    t.cycles += static_cast<double>(m.cycles);
    t.instructions += static_cast<double>(m.instructions);
    t.hostSeconds += host_seconds;
    t.l2MissRateSum += m.l2MissRate;
    t.bwUtilSum += m.bandwidthUtilization;
    t.runs += 1;
    const std::uint64_t bytes[5] = {m.bytesData, m.bytesCounter, m.bytesMac,
                                    m.bytesBmt, m.bytesExtra};
    for (int i = 0; i < 5; ++i)
        t.bytes[i] += static_cast<double>(bytes[i]);
    if (scheme == "Baseline")
        return;
    meeCounts["mee.mdc_accesses"] += static_cast<double>(m.energy.mdcAccesses);
    meeCounts["mee.aes_blocks"] += static_cast<double>(m.energy.aesBlocks);
    meeCounts["mee.hashes"] += static_cast<double>(m.energy.hashes);
    meeCounts["mee.shared_ctr_reads"] += m.sharedCtrReads;
    meeCounts["mee.chunk_mac_accesses"] += m.chunkMacAccesses;
    meeCounts["mee.block_mac_accesses"] += m.blockMacAccesses;
    meeCounts["mee.dual_mac_fallbacks"] += m.dualMacFallbacks;
    meeCounts["mee.victim_hits"] += m.victimHits;
    meeCounts["detect.ro_transitions"] += m.roTransitions;
}

void
SimLayers::fill(std::map<std::string, double> &values) const
{
    static const char *const kClasses[5] = {"data", "counter", "mac", "bmt",
                                            "extra"};
    for (const auto &[scheme, t] : schemes) {
        values["gpu.sim_cycles." + scheme] = t.cycles;
        values["gpu.instructions." + scheme] = t.instructions;
        values["gpu.host_ns_per_cycle." + scheme] =
            t.cycles > 0 ? t.hostSeconds * 1e9 / t.cycles : 0;
        if (scheme == "Baseline")
            continue;
        values["mem.l2_miss_rate." + scheme] = t.l2MissRateSum / t.runs;
        values["mem.bw_util." + scheme] = t.bwUtilSum / t.runs;
        for (int i = 0; i < 5; ++i)
            values[std::string("mem.dram_bytes.") + kClasses[i] + "." +
                   scheme] = t.bytes[i];
    }
    for (const auto &[name, v] : meeCounts)
        values[name] = v;
}

void
fillProfile(std::map<std::string, double> &values)
{
    using shmgpu::profile::Counter;
    using shmgpu::profile::Phase;
    namespace profile = shmgpu::profile;
    values["gpu.init_s"] =
        static_cast<double>(profile::nanos(Phase::Init)) * 1e-9;
    values["gpu.kernel_loop_s"] =
        static_cast<double>(profile::nanos(Phase::KernelLoop)) * 1e-9;
    values["mee.meta_path_s"] =
        static_cast<double>(profile::nanos(Phase::MetaPath)) * 1e-9;
    const double cycles =
        static_cast<double>(profile::count(Counter::KernelCycles));
    values["gpu.cycles_skipped_frac"] =
        cycles > 0
            ? static_cast<double>(profile::count(Counter::CyclesSkipped)) /
                  cycles
            : 0;
}

} // namespace perfbench
