#include "gpu/presets.hh"

#include <utility>

#include "common/logging.hh"

namespace shmgpu::gpu
{

GpuParams
turingConfig()
{
    return GpuParams{};
}

GpuParams
bigConfig()
{
    GpuParams p;
    p.numSms = 60;
    p.l2BankBytes = 256 * 1024; // 6 MB total
    p.smWindow = 96;
    p.dram.bytesPerCycle = 21.3; // ~480 GB/s over 12 partitions
    return p;
}

GpuParams
testConfig()
{
    GpuParams p;
    p.numSms = 4;
    p.numPartitions = 2;
    p.l2BankBytes = 16 * 1024;
    p.maxCyclesPerKernel = 20000;
    return p;
}

namespace
{

/** Every preset by name: what presetByName resolves and presetNames
 *  lists. */
const std::vector<std::pair<std::string, GpuParams (*)()>> &
presets()
{
    static const std::vector<std::pair<std::string, GpuParams (*)()>>
        table = {{"turing", turingConfig},
                 {"big", bigConfig},
                 {"test", testConfig}};
    return table;
}

} // namespace

GpuParams
presetByName(const std::string &name)
{
    for (const auto &[preset, make] : presets())
        if (name == preset)
            return make();
    // Name the valid set, like schemeFromName does.
    std::string known;
    for (const std::string &preset : presetNames())
        known += (known.empty() ? "" : ", ") + preset;
    shm_fatal("unknown GPU preset '{}' (expected one of: {})", name, known);
}

const std::vector<std::string> &
presetNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &preset : presets())
            out.push_back(preset.first);
        return out;
    }();
    return names;
}

GpuParams &
applyCachePolicy(GpuParams &params, mem::PolicyKind policy)
{
    params.l2Policy = policy;
    return params;
}

} // namespace shmgpu::gpu
