#include "workload/scenario.hh"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "workload/benchmarks.hh"
#include "workload/parser.hh"

namespace shmgpu::workload
{

namespace
{

/** Directory part of @p path ("" when there is none). */
std::string
dirName(const std::string &path)
{
    auto slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

} // namespace

const char *
sharePolicyName(SharePolicy policy)
{
    switch (policy) {
      case SharePolicy::TimeSliced: return "timeslice";
      case SharePolicy::Partitioned: return "partitioned";
    }
    shm_fatal("unknown share policy {}", static_cast<int>(policy));
}

SharePolicy
sharePolicyFromName(const std::string &name, const std::string &where)
{
    if (name == "timeslice")
        return SharePolicy::TimeSliced;
    if (name == "partitioned")
        return SharePolicy::Partitioned;
    shm_fatal("{}unknown share policy '{}' (valid: timeslice, "
              "partitioned)",
              locationPrefix(where), name);
}

void
validateScenario(const ScenarioSpec &scenario, const std::string &where)
{
    const std::string at = locationPrefix(where);
    if (scenario.tenants.empty())
        shm_fatal("{}scenario '{}' has no tenants", at, scenario.name);
    if (scenario.quantumCycles == 0)
        shm_fatal("{}scenario '{}': quantum must be positive", at,
                  scenario.name);
    std::set<std::string> names;
    for (const TenantSpec &tenant : scenario.tenants) {
        if (tenant.name.empty())
            shm_fatal("{}scenario '{}': tenant with empty name", at,
                      scenario.name);
        if (!names.insert(tenant.name).second)
            shm_fatal("{}scenario '{}': duplicate tenant name '{}'", at,
                      scenario.name, tenant.name);
        if (!tenant.trace) {
            validateSpec(tenant.workload, where);
            continue;
        }
        shm_assert(scenario.tenants.size() == 1,
                   "scenario '{}': trace tenant '{}' must be the only "
                   "tenant (trace addresses are absolute)",
                   scenario.name, tenant.name);
        shm_assert(!tenant.trace->kernels.empty(),
                   "scenario '{}': trace tenant '{}' has no kernels",
                   scenario.name, tenant.name);
    }
}

std::uint64_t
contentHash(const ScenarioSpec &scenario)
{
    Fingerprint fp;
    fp.str(scenario.name);
    fp.u64(static_cast<std::uint64_t>(scenario.policy));
    fp.u64(scenario.quantumCycles);
    fp.boolean(scenario.flushMdcOnSwitch);
    fp.u64(scenario.keySeed);
    fp.u64(scenario.tenants.size());
    for (const TenantSpec &tenant : scenario.tenants) {
        fp.str(tenant.name);
        fp.u64(tenant.arrivalCycle);
        fp.u64(contentHash(tenant.workload));
        fp.u64(tenant.trace ? contentHash(*tenant.trace) : 0);
    }
    return fp.value();
}

ScenarioSpec
singleTenantScenario(const WorkloadSpec &spec)
{
    ScenarioSpec scenario;
    scenario.name = spec.name;
    scenario.policy = SharePolicy::TimeSliced;
    TenantSpec tenant;
    tenant.name = spec.name;
    tenant.workload = spec;
    tenant.arrivalCycle = 0;
    scenario.tenants.push_back(std::move(tenant));
    return scenario;
}

ScenarioSpec
singleTenantScenario(std::shared_ptr<const Trace> trace,
                     const std::string &name)
{
    ScenarioSpec scenario;
    scenario.name = name;
    TenantSpec tenant;
    tenant.name = name;
    tenant.trace = std::move(trace);
    scenario.tenants.push_back(std::move(tenant));
    return scenario;
}

ScenarioSpec
parseScenario(std::istream &in, const std::string &origin)
{
    ScenarioSpec scenario;
    const std::string dir = dirName(origin);

    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string where = origin + ":" + std::to_string(lineno);
        auto toks = lineTokens(line);
        if (toks.empty())
            continue;
        const std::string &cmd = toks[0];

        auto need = [&](std::size_t n) {
            if (toks.size() < n)
                shm_fatal("{}: '{}' needs at least {} arguments", where,
                          cmd, n - 1);
        };

        if (cmd == "scenario") {
            need(2);
            scenario.name = toks[1];
        } else if (cmd == "share") {
            need(2);
            scenario.policy = sharePolicyFromName(toks[1], where);
        } else if (cmd == "quantum") {
            need(2);
            scenario.quantumCycles = parseUnsigned(toks[1], where);
        } else if (cmd == "flush_mdc") {
            need(2);
            if (toks[1] == "on")
                scenario.flushMdcOnSwitch = true;
            else if (toks[1] == "off")
                scenario.flushMdcOnSwitch = false;
            else
                shm_fatal("{}: flush_mdc wants on|off, got '{}'", where,
                          toks[1]);
        } else if (cmd == "keyseed") {
            need(2);
            scenario.keySeed = parseUnsigned(toks[1], where);
        } else if (cmd == "tenant") {
            need(2);
            TenantSpec tenant;
            const std::string &ref = toks[1];
            if (!ref.empty() && ref[0] == '@') {
                std::string path = ref.substr(1);
                if (!path.empty() && path[0] != '/')
                    path = dir + path;
                std::ifstream spec_in(path);
                if (!spec_in)
                    shm_fatal("{}: cannot open workload file '{}'", where,
                              path);
                tenant.workload = parseWorkload(spec_in, path);
            } else {
                tenant.workload = findWorkload(ref, where);
            }
            tenant.name = tenant.workload.name;
            for (std::size_t i = 2; i < toks.size(); ++i) {
                auto eq = toks[i].find('=');
                if (eq == std::string::npos)
                    shm_fatal("{}: expected key=value, got '{}'", where,
                              toks[i]);
                std::string key = toks[i].substr(0, eq);
                std::string val = toks[i].substr(eq + 1);
                if (key == "arrival")
                    tenant.arrivalCycle = parseUnsigned(val, where);
                else if (key == "as")
                    tenant.name = val;
                else
                    shm_fatal("{}: unknown tenant option '{}'", where,
                              key);
            }
            scenario.tenants.push_back(std::move(tenant));
        } else {
            shm_fatal("{}: unknown directive '{}'", where, cmd);
        }
    }

    // Whole-file checks are located at the last line read.
    validateScenario(scenario, origin + ":" + std::to_string(std::max(lineno, 1)));
    return scenario;
}

ScenarioSpec
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        shm_fatal("cannot open scenario file '{}'", path);
    return parseScenario(in, path);
}

} // namespace shmgpu::workload
