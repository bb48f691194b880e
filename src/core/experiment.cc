#include "core/experiment.hh"

#include <cmath>
#include <optional>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"

namespace shmgpu::core
{

namespace
{

/**
 * The one place a gpu::GpuSimulator is built: simulate @p scenario
 * under @p mee_params, collecting into @p collect, attributing against
 * @p truth (primed from it first when @p prime), with the tracer
 * attached when @p options asks for an export.
 */
gpu::ScenarioMetrics
simulate(const gpu::GpuParams &gpu_params, const mee::MeeParams &mee_params,
         const workload::ScenarioSpec &scenario, const RunOptions &options,
         const SimulatorHook &inspect, const detect::TruthProfile *truth,
         bool prime, detect::AccessProfile *collect = nullptr)
{
    gpu::GpuSimulator sim(gpu_params, mee_params, scenario);
    if (collect)
        sim.collectProfile(collect);
    // The oracle scheme starts with perfect knowledge, and every
    // context switch re-primes the incoming tenant's partitions after
    // the switch-time detector flush.
    if (prime)
        sim.primeFromProfile(*truth);
    if (truth)
        sim.attributeAgainst(truth);

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

/** The memo key body of every entry. */
std::uint64_t
memoKey(schemes::Scheme scheme, const workload::ScenarioSpec &scenario,
        mem::PolicyKind mdc_policy, bool attributes,
        const mee::MeeParams *truth_sizes)
{
    Fingerprint key;
    key.str(schemes::schemeName(scheme));
    key.u64(workload::contentHash(scenario));
    key.str(mem::policyName(mdc_policy));
    key.boolean(attributes);
    key.boolean(truth_sizes != nullptr);
    key.u64(truth_sizes ? truth_sizes->roDetector.regionBytes : 0);
    key.u64(truth_sizes ? truth_sizes->streamDetector.chunkBytes : 0);
    return key.value();
}

} // namespace

bool
readsTruth(schemes::Scheme scheme, const RunOptions &options)
{
    return options.collectAccuracy || schemes::needsProfilePass(scheme);
}

RunMemo::RunMemo(const gpu::GpuParams &gpu_params) : gpuConfig(gpu_params)
{
}

const MemoRun &
RunMemo::lookup(schemes::Scheme scheme,
                const workload::ScenarioSpec &scenario,
                const RunOptions &options)
{
    return entries.get(memoKey(scheme, scenario, options.mdcPolicy,
                               options.collectAccuracy, nullptr),
                       [&] {
                           RunOptions reference = options;
                           reference.soloCache = this;
                           return MemoRun{measure(gpuConfig, scheme,
                                                  scenario, reference),
                                          std::nullopt};
                       });
}

const MemoRun &
RunMemo::truthFor(const workload::ScenarioSpec &scenario,
                  const mee::MeeParams &measured)
{
    // A Baseline run over the identical schedule collects the
    // per-address access profile the predictions are judged against.
    // Tenants keep their private address windows across context
    // switches, so one address-keyed profile holds every tenant's
    // truth at once.
    return entries.get(
        memoKey(schemes::Scheme::Baseline, scenario, mem::PolicyKind::Lru,
                false, &measured),
        [&] {
            detect::AccessProfile profile(
                gpuConfig.numPartitions, gpuConfig.protectedBytesPerPartition,
                measured.roDetector.regionBytes,
                measured.streamDetector.chunkBytes);
            MemoRun run;
            run.metrics = simulate(
                gpuConfig, schemes::makeMeeParams(schemes::Scheme::Baseline),
                scenario, {}, {}, nullptr, false, &profile);
            run.truth = profile.truth();
            return run;
        });
}

void
RunMemo::shareTruth(const workload::WorkloadSpec &spec,
                    const mee::MeeParams &measured)
{
    const std::uint64_t hash =
        workload::contentHash(workload::singleTenantScenario(spec));
    std::lock_guard<std::mutex> lock(sharedMutex);
    shared.emplace(hash, measured);
}

const gpu::RunMetrics &
RunMemo::metricsFor(const workload::WorkloadSpec &spec)
{
    const workload::ScenarioSpec alone = workload::singleTenantScenario(spec);
    std::optional<mee::MeeParams> sizes;
    {
        std::lock_guard<std::mutex> lock(sharedMutex);
        const auto it = shared.find(workload::contentHash(alone));
        if (it != shared.end())
            sizes = it->second;
    }
    if (sizes)
        return truthFor(alone, *sizes).metrics.total;
    return lookup(schemes::Scheme::Baseline, alone, {}).metrics.total;
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
    return lookup(scheme, solo, options).metrics.tenants.at(0);
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
    return measure(gpu_params, scheme, schemes::makeMeeParams(scheme),
                   scenario, options, inspect);
}

gpu::ScenarioMetrics
measure(const gpu::GpuParams &gpu_params, schemes::Scheme scheme,
        mee::MeeParams mee_params, const workload::ScenarioSpec &scenario,
        const RunOptions &options, const SimulatorHook &inspect)
{
    mee_params.mdcPolicy = options.mdcPolicy;
    const detect::TruthProfile *truth = nullptr;
    std::optional<RunMemo> local;
    if (readsTruth(scheme, options)) {
        RunMemo *memo = options.soloCache ? options.soloCache
                                          : &local.emplace(gpu_params);
        shm_assert(memo->gpuParams() == gpu_params,
                   "the run memo simulates another GPU than the run");
        truth = &*memo->truthFor(scenario, mee_params).truth;
    }
    return simulate(gpu_params, mee_params, scenario, options, inspect,
                    truth, schemes::needsProfilePass(scheme));
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
    const workload::ScenarioSpec alone = workload::singleTenantScenario(spec);
    RunOptions measured = options;
    measured.soloCache = baselines.get();
    result.baseline =
        readsTruth(scheme, options)
            ? baselines->truthFor(alone, schemes::makeMeeParams(scheme))
                  .metrics.total
            : baselineFor(spec);
    result.metrics =
        measure(gpuParams(), scheme, alone, measured, inspect).total;

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
