#include "core/experiment.hh"

#include <cmath>
#include <optional>

#include "common/logging.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"

namespace shmgpu::core
{

BaselineCache::BaselineCache(const gpu::GpuParams &gpu_params)
    : gpuConfig(gpu_params)
{
}

const gpu::RunMetrics &
BaselineCache::metricsFor(const workload::WorkloadSpec &spec)
{
    return entries.get(workload::contentHash(spec), [&] {
        gpu::GpuSimulator sim(gpuConfig,
                              schemes::makeMeeParams(
                                  schemes::Scheme::Baseline),
                              spec);
        return sim.run();
    });
}

Experiment::Experiment(const gpu::GpuParams &gpu_params,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      baselines(std::make_shared<BaselineCache>(gpu_params))
{
}

Experiment::Experiment(std::shared_ptr<BaselineCache> baseline_cache,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params), baselines(std::move(baseline_cache))
{
    shm_assert(baselines != nullptr, "Experiment needs a baseline cache");
}

const gpu::RunMetrics &
Experiment::baselineFor(const workload::WorkloadSpec &spec) const
{
    return baselines->metricsFor(spec);
}

ExperimentResult
Experiment::run(schemes::Scheme scheme,
                const workload::WorkloadSpec &spec,
                const RunOptions &options) const
{
    ExperimentResult result;
    result.workload = spec.name;
    result.scheme = schemes::schemeName(scheme);
    result.l2Policy = mem::policyName(gpuParams().l2Policy);
    result.mdcPolicy = mem::policyName(options.mdcPolicy);
    result.baseline = baselineFor(spec);

    mee::MeeParams mee_params = schemes::makeMeeParams(scheme);
    mee_params.mdcPolicy = options.mdcPolicy;

    std::optional<detect::AccessProfile> profile;
    bool want_profile = options.collectAccuracy ||
                        schemes::needsProfilePass(scheme);
    if (want_profile) {
        profile.emplace(gpuParams().numPartitions,
                        mee_params.roDetector.regionBytes,
                        mee_params.streamDetector.chunkBytes);
        gpu::GpuSimulator pass1(gpuParams(),
                                schemes::makeMeeParams(
                                    schemes::Scheme::Baseline),
                                spec);
        pass1.collectProfile(&*profile);
        pass1.run();
    }

    gpu::GpuSimulator sim(gpuParams(), mee_params, spec);
    if (schemes::needsProfilePass(scheme))
        sim.primeFromProfile(*profile);
    if (profile)
        sim.attributeAgainst(&*profile);

    std::string trace_path = options.tracePath;
    if (trace_path.empty() && !options.traceDir.empty())
        trace_path = options.traceDir + "/" + result.workload + "_" +
                     result.scheme + ".trace.json";
    std::optional<trace::Tracer> tracer;
    if (!trace_path.empty() || !options.traceTextPath.empty()) {
        tracer.emplace(gpuParams().numPartitions + 1,
                       options.traceParams);
        sim.attachTracer(&*tracer);
    }

    result.metrics = sim.run();

    if (tracer)
        trace::exportTrace(*tracer, trace_path, options.traceTextPath);

    result.normalizedIpc =
        result.baseline.ipc > 0 ? result.metrics.ipc / result.baseline.ipc
                                : 0;
    double base_epi =
        gpu::energyPerInstruction(energyConfig, result.baseline.energy);
    double epi =
        gpu::energyPerInstruction(energyConfig, result.metrics.energy);
    result.normalizedEnergyPerInstr = base_epi > 0 ? epi / base_epi : 0;
    return result;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        shm_assert(v > 0, "geomean requires positive values (got {})", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace shmgpu::core
