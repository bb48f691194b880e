/**
 * @file
 * Every result record's JSON form, for the --out documents and the
 * result-cache cells. Each record lists its members once, in document
 * order (fields() below); that one list drives both the writer and
 * the exact-inverse reader, so the two can never drift apart.
 */

#include <map>
#include <numeric>
#include <ostream>
#include <type_traits>

#include "core/scenario.hh"
#include "core/sweep.hh"

namespace shmgpu::core
{

namespace
{

template <typename T>
constexpr bool isVector = false;
template <typename T>
constexpr bool isVector<std::vector<T>> = true;

/** R is the record T, const when writing. */
template <typename R, typename T>
concept Record = std::is_same_v<std::remove_const_t<R>, T>;

/** @{ The field lists: fields(record, visit) calls visit(name, member)
 *  for every member in document order. A member given as a value, not
 *  a reference, is derived from the others: written, never read. */
template <Record<gpu::EnergyActivity> R, typename F>
void
fields(R &e, F &&visit)
{
    visit("cycles", e.cycles);
    visit("instructions", e.instructions);
    visit("l2Accesses", e.l2Accesses);
    visit("dramBytes", e.dramBytes);
    visit("mdcAccesses", e.mdcAccesses);
    visit("aesBlocks", e.aesBlocks);
    visit("hashes", e.hashes);
}

template <Record<gpu::RunMetrics> R, typename F>
void
fields(R &m, F &&visit)
{
    visit("cycles", m.cycles);
    visit("instructions", m.instructions);
    visit("ipc", m.ipc);
    visit("bytesData", m.bytesData);
    visit("bytesCounter", m.bytesCounter);
    visit("bytesMac", m.bytesMac);
    visit("bytesBmt", m.bytesBmt);
    visit("bytesExtra", m.bytesExtra);
    visit("metadataOverhead", m.metadataOverhead());
    visit("bandwidthUtilization", m.bandwidthUtilization);
    visit("l2MissRate", m.l2MissRate);
    visit("roCorrect", m.roCorrect);
    visit("roMpInit", m.roMpInit);
    visit("roMpAliasing", m.roMpAliasing);
    visit("strCorrect", m.strCorrect);
    visit("strMpInit", m.strMpInit);
    visit("strMpAliasing", m.strMpAliasing);
    visit("strMpRuntimeRo", m.strMpRuntimeRo);
    visit("strMpRuntimeNonRo", m.strMpRuntimeNonRo);
    visit("sharedCtrReads", m.sharedCtrReads);
    visit("commonCtrHits", m.commonCtrHits);
    visit("roTransitions", m.roTransitions);
    visit("chunkMacAccesses", m.chunkMacAccesses);
    visit("blockMacAccesses", m.blockMacAccesses);
    visit("dualMacFallbacks", m.dualMacFallbacks);
    visit("victimHits", m.victimHits);
    visit("victimInserts", m.victimInserts);
    visit("energy", m.energy);
}

template <Record<ExperimentResult> R, typename F>
void
fields(R &r, F &&visit)
{
    visit("workload", r.workload);
    visit("scheme", r.scheme);
    visit("l2Policy", r.l2Policy);
    visit("mdcPolicy", r.mdcPolicy);
    visit("normalizedIpc", r.normalizedIpc);
    visit("overhead", r.overhead());
    visit("normalizedEnergyPerInstr", r.normalizedEnergyPerInstr);
    visit("metrics", r.metrics);
    visit("baseline", r.baseline);
}

/** A tenant's shared-run metrics, then its solo fields. */
template <Record<ScenarioTenantResult> R, typename F>
void
fields(R &t, F &&visit)
{
    auto &m = t.shared;
    visit("name", m.name);
    visit("arrivalCycle", m.arrivalCycle);
    visit("startCycle", m.startCycle);
    visit("finishCycle", m.finishCycle);
    visit("instructions", m.instructions);
    visit("windowStalls", m.windowStalls);
    visit("kernelsRun", m.kernelsRun);
    visit("dispatches", m.dispatches);
    visit("ipc", m.ipc);
    visit("memReads", m.memReads);
    visit("memWrites", m.memWrites);
    visit("mdcAccesses", m.mdcAccesses);
    visit("mdcHits", m.mdcHits);
    visit("mdcHitRate", m.mdcHitRate);
    visit("roCorrect", m.roCorrect);
    visit("roMispredicts", m.roMispredicts);
    visit("roAccuracy", m.roAccuracy);
    visit("strCorrect", m.strCorrect);
    visit("strMispredicts", m.strMispredicts);
    visit("strAccuracy", m.strAccuracy);
    visit("soloIpc", t.soloIpc);
    visit("soloMdcHitRate", t.soloMdcHitRate);
    visit("soloRoAccuracy", t.soloRoAccuracy);
    visit("soloStrAccuracy", t.soloStrAccuracy);
    visit("slowdown", t.slowdown);
    visit("roAccuracyDelta", t.roAccuracyDelta);
    visit("strAccuracyDelta", t.strAccuracyDelta);
    visit("mdcHitRateDelta", t.mdcHitRateDelta);
}

/** metrics.tenants is not listed: it mirrors tenants[i].shared. */
template <Record<ScenarioExperimentResult> R, typename F>
void
fields(R &r, F &&visit)
{
    visit("scenario", r.scenario);
    visit("scheme", r.scheme);
    visit("sharePolicy", r.sharePolicy);
    visit("quantumCycles", r.quantumCycles);
    visit("flushMdcOnSwitch", r.flushMdcOnSwitch);
    visit("tenantCount", r.tenants.size());
    visit("contextSwitches", r.metrics.contextSwitches);
    visit("mdcFlushWritebacks", r.metrics.mdcFlushWritebacks);
    visit("meanSlowdown", r.meanSlowdown);
    visit("total", r.metrics.total);
    visit("tenants", r.tenants);
}
/** @} */

template <typename T>
json::Value
toJson(const T &value)
{
    if constexpr (std::is_same_v<T, bool> ||
                  std::is_same_v<T, std::string>) {
        return json::Value(value);
    } else if constexpr (std::is_arithmetic_v<T>) {
        return json::Value(static_cast<double>(value));
    } else if constexpr (isVector<T>) {
        json::Value v = json::Value::array();
        for (const auto &item : value)
            v.append(toJson(item));
        return v;
    } else {
        json::Value v = json::Value::object();
        fields(value, [&v](const char *name, const auto &member) {
            v[name] = toJson(member);
        });
        return v;
    }
}

/** The exact inverse of toJson; fatal on missing members. */
template <typename T>
void
fromJson(const json::Value &v, T &out)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = v.asBool();
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = v.asString();
    } else if constexpr (std::is_arithmetic_v<T>) {
        out = static_cast<T>(v.asNumber());
    } else if constexpr (isVector<T>) {
        out.resize(v.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            fromJson(v.at(i), out[i]);
    } else {
        fields(out, [&v](const char *name, auto &&member) {
            if constexpr (std::is_lvalue_reference_v<decltype(member)>)
                fromJson(v.at(name), member);
        });
    }
}

/**
 * A results document: @p doc's header members, then the cells, the
 * results and a per-scheme summary named @p summary_name — in
 * first-appearance order, @p reduce over the scheme's positive
 * value(r), or 0 when it has none.
 */
template <typename Result, typename Value, typename Reduce>
json::Value
resultsDocument(json::Value doc, const std::vector<Result> &results,
                const char *summary_name, Value value, Reduce reduce)
{
    doc["cells"] = json::Value(results.size());
    doc["results"] = toJson(results);
    // Members keep insertion order, so the first write of each scheme
    // fixes its place.
    json::Value summary = json::Value::object();
    std::map<std::string, std::vector<double>> by_scheme;
    for (const auto &r : results) {
        summary[r.scheme] = json::Value(0.0);
        if (value(r) > 0)
            by_scheme[r.scheme].push_back(value(r));
    }
    for (const auto &[scheme, vals] : by_scheme)
        summary[scheme] = json::Value(reduce(vals));
    doc[summary_name] = std::move(summary);
    return doc;
}

} // namespace

json::Value
resultToJson(const ExperimentResult &result)
{
    return toJson(result);
}

ExperimentResult
resultFromJson(const json::Value &v)
{
    ExperimentResult r;
    fromJson(v, r);
    return r;
}

json::Value
sweepToJson(const std::vector<ExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    // v2: results carry "l2Policy"/"mdcPolicy" (replacement-policy axis).
    doc["schemaVersion"] = json::Value(2);
    // The figure footer rows.
    return resultsDocument(
        std::move(doc), results, "geomeanNormalizedIpc",
        [](const ExperimentResult &r) { return r.normalizedIpc; }, geomean);
}

void
writeSweepJson(std::ostream &os,
               const std::vector<ExperimentResult> &results)
{
    sweepToJson(results).write(os, 2);
    os << "\n";
}

json::Value
scenarioResultToJson(const ScenarioExperimentResult &r)
{
    return toJson(r);
}

ScenarioExperimentResult
scenarioResultFromJson(const json::Value &v)
{
    ScenarioExperimentResult r;
    fromJson(v, r);
    for (const auto &t : r.tenants)
        r.metrics.tenants.push_back(t.shared);
    return r;
}

json::Value
scenarioSweepToJson(const std::vector<ScenarioExperimentResult> &results)
{
    json::Value doc = json::Value::object();
    doc["schemaVersion"] = json::Value(1);
    doc["kind"] = json::Value("scenario-sweep");
    // The ANTT row of the interference figures.
    return resultsDocument(
        std::move(doc), results, "meanSlowdownByScheme",
        [](const ScenarioExperimentResult &r) { return r.meanSlowdown; },
        [](const std::vector<double> &vals) {
            return std::accumulate(vals.begin(), vals.end(), 0.0) /
                   static_cast<double>(vals.size());
        });
}

} // namespace shmgpu::core
