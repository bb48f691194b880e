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
        return measure(gpuConfig, schemes::Scheme::Baseline,
                       workload::singleTenantScenario(spec))
            .total;
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

gpu::ScenarioMetrics
measure(const gpu::GpuParams &gpu_params, schemes::Scheme scheme,
        const workload::ScenarioSpec &scenario,
        const MeasureOptions &options)
{
    mee::MeeParams mee_params = schemes::makeMeeParams(scheme);
    mee_params.mdcPolicy = options.mdcPolicy;

    // Ground truth: one Baseline pass over the identical schedule
    // collects the per-address access profile the predictions are
    // judged against. Tenants keep their private address windows
    // across context switches, so one address-keyed profile holds
    // every tenant's truth at once.
    const bool prime = schemes::needsProfilePass(scheme);
    std::optional<detect::AccessProfile> truth;
    if (options.attribute || prime) {
        truth.emplace(gpu_params.numPartitions,
                      gpu_params.protectedBytesPerPartition,
                      mee_params.roDetector.regionBytes,
                      mee_params.streamDetector.chunkBytes);
        gpu::GpuSimulator pass(gpu_params,
                               schemes::makeMeeParams(
                                   schemes::Scheme::Baseline),
                               scenario);
        pass.collectProfile(&*truth);
        pass.run();
    }

    // The oracle scheme starts with perfect knowledge, and every
    // context switch re-primes the incoming tenant's partitions after
    // the switch-time detector flush.
    gpu::GpuSimulator sim(gpu_params, mee_params, scenario);
    if (prime)
        sim.primeFromProfile(*truth);
    if (truth)
        sim.attributeAgainst(&*truth);

    std::optional<trace::Tracer> tracer;
    if (!options.tracePath.empty() || !options.traceTextPath.empty()) {
        tracer.emplace(gpu_params.numPartitions + 1, options.traceParams);
        sim.attachTracer(&*tracer);
    }

    gpu::ScenarioMetrics metrics = sim.run();

    if (tracer)
        trace::exportTrace(*tracer, options.tracePath,
                           options.traceTextPath);
    if (options.inspect)
        options.inspect(sim);
    return metrics;
}

ExperimentResult
Experiment::run(schemes::Scheme scheme,
                const workload::WorkloadSpec &spec,
                const RunOptions &options,
                const SimulatorHook &inspect) const
{
    ExperimentResult result;
    result.workload = spec.name;
    result.scheme = schemes::schemeName(scheme);
    result.l2Policy = mem::policyName(gpuParams().l2Policy);
    result.mdcPolicy = mem::policyName(options.mdcPolicy);
    result.baseline = baselineFor(spec);

    MeasureOptions measured;
    measured.attribute = options.collectAccuracy;
    measured.mdcPolicy = options.mdcPolicy;
    measured.tracePath = options.tracePath;
    if (measured.tracePath.empty() && !options.traceDir.empty())
        measured.tracePath = options.traceDir + "/" + result.workload +
                             "_" + result.scheme + ".trace.json";
    measured.traceTextPath = options.traceTextPath;
    measured.traceParams = options.traceParams;
    measured.inspect = inspect;
    result.metrics = measure(gpuParams(), scheme,
                             workload::singleTenantScenario(spec),
                             measured)
                         .total;

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
