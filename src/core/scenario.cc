#include "core/scenario.hh"

#include "common/logging.hh"

namespace shmgpu::core
{

void
checkScenario(const gpu::GpuParams &gpu_params, schemes::Scheme scheme,
              const workload::ScenarioSpec &scenario)
{
    workload::validateScenario(scenario);
    if (scenario.policy != workload::SharePolicy::Partitioned)
        return;
    // A MIG-style split hands each tenant its own SMs and partitions
    // with private local address maps; metadata built from physical
    // addresses would alias the tenants' overlapping spaces, so only
    // local metadata addressing can follow the split.
    const mee::MeeParams p = schemes::makeMeeParams(scheme);
    if (p.secure && !p.localMetadataAddressing)
        shm_fatal("scheme {} cannot run scenario '{}' under share "
                  "partitioned: physical metadata addressing cannot be "
                  "partitioned (use share timeslice, or a scheme with "
                  "local metadata addressing)",
                  schemes::schemeName(scheme), scenario.name);
    const std::size_t n = scenario.tenants.size();
    if (n > gpu_params.numSms || n > gpu_params.numPartitions)
        shm_fatal("scenario '{}' has {} tenants but only {} SMs / {} "
                  "partitions to split under share partitioned (use "
                  "share timeslice, fewer tenants or a larger GPU)",
                  scenario.name, n, gpu_params.numSms,
                  gpu_params.numPartitions);
}

ScenarioExperimentResult
runScenarioExperiment(const gpu::GpuParams &gpu_params,
                      schemes::Scheme scheme,
                      const workload::ScenarioSpec &scenario,
                      const RunOptions &options,
                      const SimulatorHook &inspect)
{
    checkScenario(gpu_params, scheme, scenario);

    ScenarioExperimentResult r;
    r.scenario = scenario.name;
    r.scheme = schemes::schemeName(scheme);
    r.sharePolicy = workload::sharePolicyName(scenario.policy);
    r.quantumCycles = scenario.quantumCycles;
    r.flushMdcOnSwitch = scenario.flushMdcOnSwitch;

    // Detector accuracy is the scenario headline, so attribution is
    // always on.
    RunOptions measured = options;
    measured.collectAccuracy = true;
    r.metrics = measure(gpu_params, scheme, scenario, measured, inspect);

    // Solo references: one run per distinct workload (tenants often
    // share a spec). A caller-provided memo extends the memoization
    // across cells of a sweep.
    RunMemo local(gpu_params);
    RunMemo *solos = options.soloCache ? options.soloCache : &local;

    double slowdown_sum = 0;
    r.tenants.reserve(scenario.tenants.size());
    for (std::size_t i = 0; i < scenario.tenants.size(); ++i) {
        ScenarioTenantResult t;
        t.shared = r.metrics.tenants.at(i);
        if (options.withSolo) {
            // A trace tenant always runs alone: the shared run is
            // its solo reference.
            const workload::TenantSpec &tenant = scenario.tenants[i];
            const gpu::TenantRunMetrics &solo =
                tenant.trace ? t.shared
                             : solos->soloFor(scheme, tenant.workload,
                                              scenario.keySeed,
                                              options.mdcPolicy);
            t.soloIpc = solo.ipc;
            t.soloMdcHitRate = solo.mdcHitRate;
            t.soloRoAccuracy = solo.roAccuracy;
            t.soloStrAccuracy = solo.strAccuracy;
            t.slowdown =
                t.shared.ipc > 0 ? t.soloIpc / t.shared.ipc : 0;
            t.roAccuracyDelta = t.soloRoAccuracy - t.shared.roAccuracy;
            t.strAccuracyDelta =
                t.soloStrAccuracy - t.shared.strAccuracy;
            t.mdcHitRateDelta = t.soloMdcHitRate - t.shared.mdcHitRate;
        }
        slowdown_sum += t.slowdown;
        r.tenants.push_back(std::move(t));
    }
    if (!r.tenants.empty())
        r.meanSlowdown =
            slowdown_sum / static_cast<double>(r.tenants.size());
    return r;
}

} // namespace shmgpu::core
