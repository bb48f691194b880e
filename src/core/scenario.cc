#include "core/scenario.hh"

#include <map>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/result_cache.hh"

namespace shmgpu::core
{

namespace
{

double
accuracyOf(std::uint64_t correct, std::uint64_t mispredicts)
{
    const std::uint64_t total = correct + mispredicts;
    return total ? static_cast<double>(correct) /
                       static_cast<double>(total)
                 : 0.0;
}

/**
 * Fatal when @p scheme cannot run @p scenario. A MIG-style split
 * hands each tenant its own partitions with private local address
 * maps; metadata built from physical addresses would alias the
 * tenants' overlapping spaces, so only local metadata addressing
 * can follow the split.
 */
void
checkSchemeFitsScenario(schemes::Scheme scheme,
                        const workload::ScenarioSpec &scenario)
{
    const mee::MeeParams p = schemes::makeMeeParams(scheme);
    if (scenario.policy == workload::SharePolicy::Partitioned &&
        p.secure && !p.localMetadataAddressing)
        shm_fatal("scheme {} cannot run scenario '{}' under share "
                  "partitioned: physical metadata addressing cannot be "
                  "partitioned (use share timeslice, or a scheme with "
                  "local metadata addressing)",
                  schemes::schemeName(scheme), scenario.name);
}

/** The memoization key of one solo reference. */
std::uint64_t
soloKey(schemes::Scheme scheme, const workload::WorkloadSpec &spec,
        std::uint64_t key_seed, mem::PolicyKind mdc_policy)
{
    Fingerprint h;
    h.str(schemes::schemeName(scheme));
    h.u64(workload::contentHash(spec));
    h.u64(key_seed);
    h.str(mem::policyName(mdc_policy));
    return h.value();
}

} // namespace

ScenarioSoloCache::ScenarioSoloCache(const gpu::GpuParams &gpu_params)
    : gpuConfig(gpu_params)
{
}

const gpu::TenantRunMetrics &
ScenarioSoloCache::soloFor(schemes::Scheme scheme,
                           const workload::WorkloadSpec &spec,
                           std::uint64_t key_seed,
                           mem::PolicyKind mdc_policy)
{
    return entries.get(soloKey(scheme, spec, key_seed, mdc_policy), [&] {
        // The solo reference is the degenerate one-tenant scenario
        // under the same scheme, key seed and MDC policy.
        workload::ScenarioSpec solo = workload::singleTenantScenario(spec);
        solo.keySeed = key_seed;
        ScenarioRunOptions options;
        options.withSolo = false;
        options.mdcPolicy = mdc_policy;
        return runScenarioExperiment(gpuConfig, scheme, solo, options)
            .metrics.tenants.at(0);
    });
}

ScenarioExperimentResult
runScenarioExperiment(const gpu::GpuParams &gpu_params,
                      schemes::Scheme scheme,
                      const workload::ScenarioSpec &scenario,
                      const ScenarioRunOptions &options,
                      const SimulatorHook &inspect)
{
    workload::validateScenario(scenario);
    checkSchemeFitsScenario(scheme, scenario);

    ScenarioExperimentResult r;
    r.scenario = scenario.name;
    r.scheme = schemes::schemeName(scheme);
    r.sharePolicy = workload::sharePolicyName(scenario.policy);
    r.quantumCycles = scenario.quantumCycles;
    r.flushMdcOnSwitch = scenario.flushMdcOnSwitch;

    // Detector accuracy is the scenario headline, so attribution is
    // always on.
    MeasureOptions measured;
    measured.attribute = true;
    measured.mdcPolicy = options.mdcPolicy;
    measured.tracePath = options.tracePath;
    measured.traceTextPath = options.traceTextPath;
    measured.traceParams = options.traceParams;
    measured.inspect = inspect;
    r.metrics = measure(gpu_params, scheme, scenario, measured);

    // Solo references: one run per distinct workload (tenants often
    // share a spec). A caller-provided cache extends the memoization
    // across cells of a sweep.
    ScenarioSoloCache local(gpu_params);
    ScenarioSoloCache *solos =
        options.soloCache ? options.soloCache : &local;

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
            t.soloRoAccuracy =
                accuracyOf(solo.roCorrect, solo.roMispredicts);
            t.soloStrAccuracy =
                accuracyOf(solo.strCorrect, solo.strMispredicts);
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

std::vector<ScenarioExperimentResult>
runScenarioCells(const gpu::GpuParams &gpu_params,
                 const std::vector<ScenarioCell> &cells,
                 const ScenarioSweepOptions &options)
{
    // Reject unsupported combinations before any cell simulates.
    for (const ScenarioCell &cell : cells)
        if (cell.scenario)
            checkSchemeFitsScenario(cell.scheme, *cell.scenario);

    // Solo references are shared across the whole grid: a quantum
    // sweep over one scenario pays for each tenant's solo run once.
    ScenarioSoloCache solos(gpu_params);
    ScenarioRunOptions run = options.run;
    if (run.withSolo && run.soloCache == nullptr)
        run.soloCache = &solos;

    const std::string &code_version = codeVersion();
    const crypto::Backend backend = crypto::activeBackend();
    const gpu::EnergyParams energy{};

    SweepOptions pool;
    pool.jobs = options.jobs;
    pool.tally = options.tally;
    std::vector<double> cost(cells.size(), 0.0);
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].scenario)
            for (const workload::TenantSpec &t : cells[i].scenario->tenants)
                cost[i] += estimateCellCost(t.workload,
                                            gpu_params.maxCyclesPerKernel);
    std::vector<ScenarioExperimentResult> results(cells.size());
    runCellPool(cells.size(), pool, [&](std::size_t i) {
        shm_assert(cells[i].scenario != nullptr,
                   "scenario cell without a scenario");
        std::uint64_t key = 0;
        if (options.cache) {
            key = scenarioCellKey(gpu_params, energy, run.withSolo,
                                  run.mdcPolicy, cells[i].scheme,
                                  *cells[i].scenario, backend,
                                  code_version);
            if (loadScenarioCell(*options.cache, key, &results[i]))
                return true;
        }
        results[i] = runScenarioExperiment(gpu_params, cells[i].scheme,
                                           *cells[i].scenario, run);
        if (options.cache)
            storeScenarioCell(*options.cache, key, results[i]);
        return false;
    }, cost);
    return results;
}

namespace
{

json::Value
tenantToJson(const ScenarioTenantResult &t)
{
    const gpu::TenantRunMetrics &m = t.shared;
    json::Value v = json::Value::object();
    v["name"] = json::Value(m.name);
    v["arrivalCycle"] =
        json::Value(static_cast<std::uint64_t>(m.arrivalCycle));
    v["startCycle"] =
        json::Value(static_cast<std::uint64_t>(m.startCycle));
    v["finishCycle"] =
        json::Value(static_cast<std::uint64_t>(m.finishCycle));
    v["instructions"] = json::Value(m.instructions);
    v["windowStalls"] = json::Value(m.windowStalls);
    v["kernelsRun"] = json::Value(m.kernelsRun);
    v["dispatches"] = json::Value(m.dispatches);
    v["ipc"] = json::Value(m.ipc);
    v["memReads"] = json::Value(m.memReads);
    v["memWrites"] = json::Value(m.memWrites);
    v["mdcAccesses"] = json::Value(m.mdcAccesses);
    v["mdcHits"] = json::Value(m.mdcHits);
    v["mdcHitRate"] = json::Value(m.mdcHitRate);
    v["roCorrect"] = json::Value(m.roCorrect);
    v["roMispredicts"] = json::Value(m.roMispredicts);
    v["roAccuracy"] = json::Value(m.roAccuracy);
    v["strCorrect"] = json::Value(m.strCorrect);
    v["strMispredicts"] = json::Value(m.strMispredicts);
    v["strAccuracy"] = json::Value(m.strAccuracy);
    v["soloIpc"] = json::Value(t.soloIpc);
    v["soloMdcHitRate"] = json::Value(t.soloMdcHitRate);
    v["soloRoAccuracy"] = json::Value(t.soloRoAccuracy);
    v["soloStrAccuracy"] = json::Value(t.soloStrAccuracy);
    v["slowdown"] = json::Value(t.slowdown);
    v["roAccuracyDelta"] = json::Value(t.roAccuracyDelta);
    v["strAccuracyDelta"] = json::Value(t.strAccuracyDelta);
    v["mdcHitRateDelta"] = json::Value(t.mdcHitRateDelta);
    return v;
}

ScenarioTenantResult
tenantFromJson(const json::Value &v)
{
    auto u64 = [&](const char *key) {
        return static_cast<std::uint64_t>(v.at(key).asNumber());
    };
    ScenarioTenantResult t;
    gpu::TenantRunMetrics &m = t.shared;
    m.name = v.at("name").asString();
    m.arrivalCycle = static_cast<Cycle>(u64("arrivalCycle"));
    m.startCycle = static_cast<Cycle>(u64("startCycle"));
    m.finishCycle = static_cast<Cycle>(u64("finishCycle"));
    m.instructions = u64("instructions");
    m.windowStalls = u64("windowStalls");
    m.kernelsRun = u64("kernelsRun");
    m.dispatches = u64("dispatches");
    m.ipc = v.at("ipc").asNumber();
    m.memReads = u64("memReads");
    m.memWrites = u64("memWrites");
    m.mdcAccesses = u64("mdcAccesses");
    m.mdcHits = u64("mdcHits");
    m.mdcHitRate = v.at("mdcHitRate").asNumber();
    m.roCorrect = u64("roCorrect");
    m.roMispredicts = u64("roMispredicts");
    m.roAccuracy = v.at("roAccuracy").asNumber();
    m.strCorrect = u64("strCorrect");
    m.strMispredicts = u64("strMispredicts");
    m.strAccuracy = v.at("strAccuracy").asNumber();
    t.soloIpc = v.at("soloIpc").asNumber();
    t.soloMdcHitRate = v.at("soloMdcHitRate").asNumber();
    t.soloRoAccuracy = v.at("soloRoAccuracy").asNumber();
    t.soloStrAccuracy = v.at("soloStrAccuracy").asNumber();
    t.slowdown = v.at("slowdown").asNumber();
    t.roAccuracyDelta = v.at("roAccuracyDelta").asNumber();
    t.strAccuracyDelta = v.at("strAccuracyDelta").asNumber();
    t.mdcHitRateDelta = v.at("mdcHitRateDelta").asNumber();
    return t;
}

} // namespace

json::Value
scenarioResultToJson(const ScenarioExperimentResult &r)
{
    json::Value v = json::Value::object();
    v["scenario"] = json::Value(r.scenario);
    v["scheme"] = json::Value(r.scheme);
    v["sharePolicy"] = json::Value(r.sharePolicy);
    v["quantumCycles"] =
        json::Value(static_cast<std::uint64_t>(r.quantumCycles));
    v["flushMdcOnSwitch"] = json::Value(r.flushMdcOnSwitch);
    v["tenantCount"] =
        json::Value(static_cast<std::uint64_t>(r.tenants.size()));
    v["contextSwitches"] = json::Value(r.metrics.contextSwitches);
    v["mdcFlushWritebacks"] = json::Value(r.metrics.mdcFlushWritebacks);
    v["meanSlowdown"] = json::Value(r.meanSlowdown);
    v["total"] = runMetricsToJson(r.metrics.total);
    json::Value tenants = json::Value::array();
    for (const auto &t : r.tenants)
        tenants.append(tenantToJson(t));
    v["tenants"] = std::move(tenants);
    return v;
}

ScenarioExperimentResult
scenarioResultFromJson(const json::Value &v)
{
    ScenarioExperimentResult r;
    r.scenario = v.at("scenario").asString();
    r.scheme = v.at("scheme").asString();
    r.sharePolicy = v.at("sharePolicy").asString();
    r.quantumCycles =
        static_cast<Cycle>(v.at("quantumCycles").asNumber());
    r.flushMdcOnSwitch = v.at("flushMdcOnSwitch").asBool();
    r.metrics.contextSwitches = static_cast<std::uint64_t>(
        v.at("contextSwitches").asNumber());
    r.metrics.mdcFlushWritebacks = static_cast<std::uint64_t>(
        v.at("mdcFlushWritebacks").asNumber());
    r.meanSlowdown = v.at("meanSlowdown").asNumber();
    runMetricsFromJson(v.at("total"), &r.metrics.total);
    const json::Value &tenants = v.at("tenants");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        r.tenants.push_back(tenantFromJson(tenants.at(i)));
        r.metrics.tenants.push_back(r.tenants.back().shared);
    }
    return r;
}

json::Value
scenarioSweepToJson(const std::vector<ScenarioExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    doc["schemaVersion"] = json::Value(1);
    doc["kind"] = json::Value("scenario-sweep");
    doc["cells"] = json::Value(results.size());

    json::Value arr = json::Value::array();
    for (const auto &r : results)
        arr.append(scenarioResultToJson(r));
    doc["results"] = std::move(arr);

    // Per-scheme mean-slowdown summary in first-appearance order —
    // the ANTT row of the interference figures.
    std::vector<std::string> scheme_order;
    std::map<std::string, std::vector<double>> by_scheme;
    for (const auto &r : results) {
        if (!by_scheme.contains(r.scheme))
            scheme_order.push_back(r.scheme);
        if (r.meanSlowdown > 0)
            by_scheme[r.scheme].push_back(r.meanSlowdown);
    }
    json::Value summary = json::Value::object();
    for (const auto &scheme : scheme_order) {
        const auto &vals = by_scheme[scheme];
        double sum = 0;
        for (double s : vals)
            sum += s;
        summary[scheme] = json::Value(
            vals.empty() ? 0.0
                         : sum / static_cast<double>(vals.size()));
    }
    doc["meanSlowdownByScheme"] = std::move(summary);
    return doc;
}

bool
loadScenarioCell(const ResultCache &cache, std::uint64_t key,
                 ScenarioExperimentResult *out)
{
    shm_assert(out != nullptr, "load needs a destination");
    json::Value payload;
    if (!cache.loadValue(key, "scenarioResult", &payload))
        return false;
    *out = scenarioResultFromJson(payload);
    return true;
}

void
storeScenarioCell(const ResultCache &cache, std::uint64_t key,
                  const ScenarioExperimentResult &result)
{
    cache.storeValue(key, "scenarioResult", scenarioResultToJson(result));
}

} // namespace shmgpu::core
