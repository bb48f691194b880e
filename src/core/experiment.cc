#include "core/experiment.hh"

#include <cmath>
#include <optional>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"

namespace shmgpu::core
{

RunMemo::RunMemo(const gpu::GpuParams &gpu_params) : gpuConfig(gpu_params)
{
}

const gpu::ScenarioMetrics &
RunMemo::lookup(schemes::Scheme scheme,
                const workload::ScenarioSpec &scenario,
                const RunOptions &options)
{
    Fingerprint key;
    key.str(schemes::schemeName(scheme));
    key.u64(workload::contentHash(scenario));
    key.str(mem::policyName(options.mdcPolicy));
    key.boolean(options.collectAccuracy);
    return entries.get(key.value(), [&] {
        return measure(gpuConfig, scheme, scenario, options);
    });
}

const gpu::RunMetrics &
RunMemo::metricsFor(const workload::WorkloadSpec &spec)
{
    return lookup(schemes::Scheme::Baseline,
                  workload::singleTenantScenario(spec), {})
        .total;
}

const gpu::TenantRunMetrics &
RunMemo::soloFor(schemes::Scheme scheme, const workload::WorkloadSpec &spec,
                 std::uint64_t key_seed, mem::PolicyKind mdc_policy)
{
    workload::ScenarioSpec solo = workload::singleTenantScenario(spec);
    solo.keySeed = key_seed;
    RunOptions options;
    options.collectAccuracy = true;
    options.mdcPolicy = mdc_policy;
    return lookup(scheme, solo, options).tenants.at(0);
}

Experiment::Experiment(const gpu::GpuParams &gpu_params,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params),
      baselines(std::make_shared<RunMemo>(gpu_params))
{
}

Experiment::Experiment(std::shared_ptr<RunMemo> memo,
                       const gpu::EnergyParams &energy_params)
    : energyConfig(energy_params), baselines(std::move(memo))
{
    shm_assert(baselines != nullptr, "Experiment needs a run memo");
}

const gpu::RunMetrics &
Experiment::baselineFor(const workload::WorkloadSpec &spec) const
{
    return baselines->metricsFor(spec);
}

gpu::ScenarioMetrics
measure(const gpu::GpuParams &gpu_params, schemes::Scheme scheme,
        const workload::ScenarioSpec &scenario, const RunOptions &options,
        const SimulatorHook &inspect)
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
    if (options.collectAccuracy || prime) {
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
    if (inspect)
        inspect(sim);
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
    result.metrics = measure(gpuParams(), scheme,
                             workload::singleTenantScenario(spec), options,
                             inspect)
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
