/**
 * @file
 * The shmgpu command-line tool: list, run, sweep, trace and
 * trace-info. Its performance is measured by perfbench/.
 *
 * usage() prints one line per mode with every flag it accepts; run
 * and sweep each have a workload mode and a --scenario mode with
 * their own flag sets. docs/SWEEP.md covers the sweep modes and the
 * result cache, docs/SIMULATOR.md the simulator they drive.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "core/experiment.hh"
#include "core/overrides.hh"
#include "core/result_cache.hh"
#include "core/scenario.hh"
#include "core/sweep.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "mem/replacement.hh"
#include "workload/benchmarks.hh"
#include "workload/parser.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;

namespace
{

/** The --schemes list ("all" = every secure scheme); fatal if empty. */
std::vector<schemes::Scheme>
schemeList(const Args &args, const std::string &fallback)
{
    const std::string names = args.get("schemes", fallback);
    std::vector<schemes::Scheme> designs;
    if (names == "all") {
        designs = schemes::allSchemes();
    } else {
        for (const auto &name : splitList(names))
            designs.push_back(schemes::schemeFromName(name));
    }
    if (designs.empty())
        shm_fatal("'{}' selects no schemes", args.command());
    return designs;
}

/** @p path opened for writing; fatal, naming it, when it cannot be. */
std::ofstream
openOut(const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        shm_fatal("cannot open '{}' for writing", path);
    return os;
}

/** Write @p doc to @p path, indented, with a trailing newline. */
void
writeJsonFile(const std::string &path, const json::Value &doc)
{
    std::ofstream os = openOut(path);
    doc.write(os, 2);
    os << "\n";
}

int
usage()
{
    std::puts("usage: shmgpu <list|run|sweep|trace|trace-info> [flags]\n"
              "  shmgpu list\n"
              "  shmgpu run (--workload NAME | --spec FILE) [--scheme SHM]"
              " [--gpu turing|big|test] [--cycles N]"
              " [--policy lru|fifo|random|s3fifo|sieve] [--overrides CFG]"
              " [--stats FILE] [--json FILE] [--accuracy] [--profile]"
              " [--trace OUT.json] [--trace-text OUT.txt]\n"
              "  shmgpu run --scenario FILE [--scheme SHM]"
              " [--gpu turing|big|test] [--cycles N] [--policy P]"
              " [--overrides CFG] [--stats FILE] [--json FILE] [--no-solo]"
              " [--trace OUT.json] [--trace-text OUT.txt]\n"
              "  shmgpu sweep [--workloads a,b,c|all] [--schemes X,Y|all]"
              " [--jobs N] [--gpu turing|big|test] [--cycles N]"
              " [--policy P] [--policies P,Q|all]"
              " [--zipf-footprints S1,S2,... [--zipf-alphas A1,A2,...]]"
              " [--results-dir DIR] [--resume] [--cancel-after N]"
              " [--overrides CFG] [--out FILE] [--quiet] [--accuracy]"
              " [--trace DIR]\n"
              "  shmgpu sweep --scenario FILE [--schemes X,Y|all]"
              " [--quantums Q1,Q2,...] [--share timeslice,partitioned]"
              " [--tenants N1,N2,...] [--no-solo] [--jobs N]"
              " [--gpu turing|big|test] [--cycles N] [--policy P]"
              " [--results-dir DIR] [--overrides CFG] [--out FILE]"
              " [--quiet]\n"
              "  shmgpu trace record --workload NAME --out FILE"
              " [--sms N]\n"
              "  shmgpu trace run --in FILE [--scheme SHM] [--cycles N]\n"
              "  shmgpu trace info --in FILE\n"
              "  shmgpu trace-info --in TRACE.json");
    return 2;
}

void
printSummary(const core::ExperimentResult &r)
{
    std::printf("%-16s %-16s normIPC=%.3f overhead=%.2f%% "
                "mdOverhead=%.2f%% energy=%.3fx\n",
                r.workload.c_str(), r.scheme.c_str(), r.normalizedIpc,
                100 * r.overhead(),
                100 * r.metrics.metadataOverhead(),
                r.normalizedEnergyPerInstr);
}

int
cmdList()
{
    std::puts("workloads (Table VII):");
    for (const auto &w : workload::allWorkloads())
        std::printf("  %-14s %-10s util %2.0f-%2.0f%%  spaces: %s\n",
                    w.name.c_str(), w.suite.c_str(), 100 * w.bwUtilLo,
                    100 * w.bwUtilHi, w.specialSpaces.c_str());
    std::puts("\nschemes (Table VIII):");
    std::printf("  %s\n", schemes::schemeName(schemes::Scheme::Baseline));
    for (auto s : schemes::allSchemes())
        std::printf("  %s\n", schemes::schemeName(s));
    std::puts("\ncache replacement policies (--policy / cache.policy / "
              "mee.mdc_policy):");
    for (auto p : mem::allPolicies())
        std::printf("  %s\n", mem::policyName(p));
    return 0;
}

/**
 * The one config builder behind every simulating subcommand: the --gpu
 * preset (turing when absent), then the --overrides file, then the
 * flags, which win over the file. @p opts receives the per-run knobs
 * the file or the flags set: trace classes, the metadata-cache policy,
 * and --accuracy or --no-solo where the mode accepts them. The rest of
 * the MEE comes from --scheme, so the file's other mee.* keys are
 * fatal.
 */
gpu::GpuParams
configFrom(const Args &args, core::RunOptions &opts)
{
    gpu::GpuParams gp = gpu::presetByName(args.get("gpu", "turing"));
    std::string overrides = args.get("overrides");
    if (!overrides.empty()) {
        Config config = Config::fromFile(overrides);
        core::applyCliOverrides(config, gp, opts.traceParams,
                                opts.mdcPolicy);
    }
    // --policy switches L2 and metadata caches together.
    std::string policy = args.get("policy");
    if (!policy.empty()) {
        mem::PolicyKind kind = mem::policyFromName(policy);
        gpu::applyCachePolicy(gp, kind);
        opts.mdcPolicy = kind;
    }
    gp.maxCyclesPerKernel =
        args.number<Cycle>("cycles", gp.maxCyclesPerKernel);
    if (gp.maxCyclesPerKernel == 0)
        shm_fatal("--cycles must be positive (in '{}')", args.command());
    opts.collectAccuracy = args.has("accuracy");
    opts.withSolo = !args.has("no-solo");
    return gp;
}

/** Dump @p sim's stats tree to @p path, as text or as JSON. */
void
writeStats(gpu::GpuSimulator &sim, const std::string &path, bool as_json)
{
    std::ofstream out = openOut(path);
    if (as_json) {
        sim.statsRoot().dumpJson(out);
        out << "\n";
    } else {
        sim.statsRoot().dump(out);
    }
}

void
printScenario(const core::ScenarioExperimentResult &r)
{
    std::printf("scenario %-12s %-14s share=%s", r.scenario.c_str(),
                r.scheme.c_str(), r.sharePolicy.c_str());
    if (r.sharePolicy == "timeslice")
        std::printf(" quantum=%llu switches=%llu",
                    static_cast<unsigned long long>(r.quantumCycles),
                    static_cast<unsigned long long>(
                        r.metrics.contextSwitches));
    if (r.flushMdcOnSwitch)
        std::printf(" flushWbs=%llu",
                    static_cast<unsigned long long>(
                        r.metrics.mdcFlushWritebacks));
    std::printf(" cycles=%llu ipc=%.3f",
                static_cast<unsigned long long>(r.metrics.total.cycles),
                r.metrics.total.ipc);
    if (r.meanSlowdown > 0)
        std::printf(" meanSlowdown=%.2fx", r.meanSlowdown);
    std::printf("\n");
    for (const auto &t : r.tenants) {
        const auto &m = t.shared;
        std::printf("  %-12s arrive=%-7llu finish=%-8llu ipc=%.3f",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.arrivalCycle),
                    static_cast<unsigned long long>(m.finishCycle),
                    m.ipc);
        if (t.soloIpc > 0)
            std::printf(" solo=%.3f slowdown=%.2fx", t.soloIpc,
                        t.slowdown);
        std::printf(" mdcHit=%.3f", m.mdcHitRate);
        if (t.soloIpc > 0)
            std::printf(" (solo %.3f)", t.soloMdcHitRate);
        if (m.roCorrect + m.roMispredicts > 0)
            std::printf(" roAcc=%.3f", m.roAccuracy);
        if (m.strCorrect + m.strMispredicts > 0)
            std::printf(" strAcc=%.3f", m.strAccuracy);
        std::printf(" dispatches=%llu\n",
                    static_cast<unsigned long long>(m.dispatches));
    }
}

/**
 * Both run modes: one workload (--workload or --spec) or one
 * --scenario, configured by configFrom. --stats dumps the measured
 * run itself (primed and attributed exactly as the result printed);
 * --json is its stats tree as JSON, or under --scenario the structured
 * result (per-tenant metrics and interference deltas).
 */
int
cmdRun(const Args &args, bool scenario)
{
    workload::ScenarioSpec scn;
    workload::WorkloadSpec spec;
    if (scenario) {
        scn = workload::parseScenarioFile(args.get("scenario"));
    } else if (!args.get("spec").empty()) {
        spec = workload::parseWorkloadFile(args.get("spec"));
    } else if (!args.get("workload").empty()) {
        spec = workload::findWorkload(args.get("workload"));
    } else {
        shm_fatal("run needs --workload, --spec or --scenario "
                  "(see 'shmgpu list')");
    }
    auto scheme = schemes::schemeFromName(args.get("scheme", "SHM"));
    if (args.has("profile")) {
        profile::setEnabled(true);
        profile::reset();
    }

    core::RunOptions opts;
    const gpu::GpuParams gp = configFrom(args, opts);
    opts.tracePath = args.get("trace");
    opts.traceTextPath = args.get("trace-text");
    const bool json_stats = args.has("json") && !scenario;
    const core::SimulatorHook dump = [&](gpu::GpuSimulator &sim) {
        if (args.has("stats"))
            writeStats(sim, args.get("stats"), false);
        if (json_stats)
            writeStats(sim, args.get("json"), true);
    };
    core::ScenarioExperimentResult shared;
    core::ExperimentResult r;
    if (scenario)
        shared = core::runScenarioExperiment(gp, scheme, scn, opts, dump);
    else
        r = core::Experiment(gp).run(scheme, spec, opts, dump);
    if (!opts.tracePath.empty())
        std::printf("trace written to %s\n", opts.tracePath.c_str());

    if (scenario) {
        printScenario(shared);
        if (args.has("json")) {
            writeJsonFile(args.get("json"),
                          core::scenarioResultToJson(shared));
            std::printf("scenario json written to %s\n",
                        args.get("json").c_str());
        }
    } else {
        printSummary(r);
    }
    if (args.has("profile"))
        profile::report(std::cout);
    if (opts.collectAccuracy) {
        double ro_total = r.metrics.roCorrect + r.metrics.roMpInit +
                          r.metrics.roMpAliasing;
        double str_total = r.metrics.strCorrect + r.metrics.strMpInit +
                           r.metrics.strMpAliasing +
                           r.metrics.strMpRuntimeRo +
                           r.metrics.strMpRuntimeNonRo;
        if (ro_total > 0)
            std::printf("read-only prediction accuracy : %.2f%%\n",
                        100 * r.metrics.roCorrect / ro_total);
        if (str_total > 0)
            std::printf("streaming prediction accuracy : %.2f%%\n",
                        100 * r.metrics.strCorrect / str_total);
    }
    if (args.has("stats"))
        std::printf("stats written to %s\n", args.get("stats").c_str());
    if (json_stats)
        std::printf("json stats written to %s\n",
                    args.get("json").c_str());
    return 0;
}

/**
 * Build the Zipf grid requested by --zipf-footprints / --zipf-alphas
 * into owned specs, footprint-major. Empty when the axes are absent.
 */
std::vector<workload::WorkloadSpec>
zipfGrid(const Args &args)
{
    std::vector<workload::WorkloadSpec> specs;
    std::string footprints = args.get("zipf-footprints");
    if (footprints.empty()) {
        if (args.has("zipf-alphas"))
            shm_fatal("--zipf-alphas needs --zipf-footprints");
        return specs;
    }
    std::vector<std::uint64_t> sizes;
    for (const auto &tok : args.list("zipf-footprints"))
        sizes.push_back(workload::parseSize(tok));
    const std::vector<double> alphas =
        args.numbers<double>("zipf-alphas", {0.8});
    specs.reserve(sizes.size() * alphas.size());
    for (auto fp : sizes)
        for (double a : alphas)
            specs.push_back(workload::makeZipfSpec(fp, a));
    return specs;
}

/**
 * Build one scenario-grid variant: @p base with the share policy,
 * quantum and tenant count replaced. Tenant lists grow round-robin
 * from the base scenario's tenants ("atax", "mvt", "atax#2", ...),
 * so a --tenants 2,4,8 axis scales one mix without new files.
 */
workload::ScenarioSpec
scenarioVariant(const workload::ScenarioSpec &base,
                workload::SharePolicy share, Cycle quantum, unsigned n)
{
    workload::ScenarioSpec s = base;
    s.policy = share;
    s.quantumCycles = quantum;
    s.tenants.clear();
    for (unsigned i = 0; i < n; ++i) {
        workload::TenantSpec t = base.tenants[i % base.tenants.size()];
        if (i >= base.tenants.size())
            t.name += "#" + std::to_string(
                                i / base.tenants.size() + 1);
        s.tenants.push_back(std::move(t));
    }
    return s;
}

/**
 * The scenario sweep: a (share x quantum x tenant-count x scheme)
 * grid over one base scenario file, with the quantum axis collapsing
 * for partitioned cells (no context switches there). Returns the --out
 * document.
 */
json::Value
sweepScenarios(const Args &args, const gpu::GpuParams &gp,
               const core::SweepOptions &opts)
{
    const workload::ScenarioSpec base =
        workload::parseScenarioFile(args.get("scenario"));

    const std::vector<schemes::Scheme> designs = schemeList(args, "SHM");

    std::vector<workload::SharePolicy> shares;
    for (const auto &name :
         args.list("share", workload::sharePolicyName(base.policy)))
        shares.push_back(workload::sharePolicyFromName(name));

    const std::vector<Cycle> quantums =
        args.numbers<Cycle>("quantums", {base.quantumCycles});
    const std::vector<unsigned> tenant_counts = args.numbers<unsigned>(
        "tenants", {static_cast<unsigned>(base.tenants.size())});
    for (unsigned n : tenant_counts)
        if (n == 0)
            shm_fatal("--tenants needs positive counts");

    // Owned variant storage, fully built before cells take pointers.
    std::vector<workload::ScenarioSpec> variants;
    for (auto share : shares) {
        const bool sliced = share == workload::SharePolicy::TimeSliced;
        // Partitioned mode has no switches: one cell per tenant count,
        // pinned to the base quantum so the axis never duplicates it.
        const std::vector<Cycle> qs =
            sliced ? quantums : std::vector<Cycle>{base.quantumCycles};
        for (Cycle q : qs)
            for (unsigned n : tenant_counts)
                variants.push_back(scenarioVariant(base, share, q, n));
    }
    std::vector<core::ScenarioCell> cells;
    cells.reserve(variants.size() * designs.size());
    for (const auto &v : variants)
        for (auto scheme : designs)
            cells.push_back({scheme, &v});

    auto results = core::SweepRunner(gp).run(cells, opts);
    if (!args.has("quiet")) {
        for (const auto &r : results)
            printScenario(r);
    }
    return core::scenarioSweepToJson(results);
}

/** The workload sweep; returns the --out document. Throws
 *  core::SweepCancelled when --cancel-after fires. */
json::Value
sweepWorkloads(const Args &args, const gpu::GpuParams &gp,
               const core::SweepOptions &opts)
{
    // Owned storage for the generated Zipf axes; fully built before
    // any pointer is taken so `workloads` never dangles.
    const std::vector<workload::WorkloadSpec> zipf_specs = zipfGrid(args);

    std::vector<const workload::WorkloadSpec *> workloads;
    // With explicit Zipf axes the paper workloads only join in when
    // asked for by name; without them the default stays "all".
    std::string workload_list =
        args.get("workloads", zipf_specs.empty() ? "all" : "");
    if (workload_list == "all") {
        for (const auto &w : workload::allWorkloads())
            workloads.push_back(&w);
    } else {
        for (const auto &name : splitList(workload_list))
            workloads.push_back(&workload::findWorkload(name));
    }
    for (const auto &z : zipf_specs)
        workloads.push_back(&z);
    if (workloads.empty())
        shm_fatal("sweep selects no workloads");

    const std::vector<schemes::Scheme> designs = schemeList(args, "all");

    std::vector<core::ExperimentResult> results;
    std::string policy_list = args.get("policies");
    if (!policy_list.empty()) {
        // Policy-major third grid axis; a fresh runner (and baseline)
        // per policy, since the L2 policy moves the baseline IPC.
        std::vector<mem::PolicyKind> policies;
        if (policy_list == "all") {
            policies = mem::allPolicies();
        } else {
            for (const auto &name : splitList(policy_list))
                policies.push_back(mem::policyFromName(name));
        }
        if (policies.empty())
            shm_fatal("sweep selects no policies");
        results =
            core::runPolicyGrid(gp, policies, designs, workloads, opts);
    } else {
        results = core::SweepRunner(gp).run(designs, workloads, opts);
    }

    if (!args.has("quiet")) {
        for (const auto &r : results)
            printSummary(r);
        std::map<std::string, std::vector<double>> by_scheme;
        for (const auto &r : results)
            by_scheme[r.scheme].push_back(r.normalizedIpc);
        for (auto s : designs) {
            const auto &col = by_scheme[schemes::schemeName(s)];
            std::printf("geomean %-16s normIPC=%.3f\n",
                        schemes::schemeName(s), core::geomean(col));
        }
    }
    return core::sweepToJson(results);
}

/**
 * Both sweep modes: the shared config, the --results-dir cell store
 * and its tally around the grid, then the tally line and --out.
 */
int
cmdSweep(const Args &args, bool scenario)
{
    core::SweepOptions opts;
    const gpu::GpuParams gp = configFrom(args, opts.run);
    opts.jobs = args.number<unsigned>("jobs", 1);
    opts.traceDir = args.get("trace");
    opts.cancelAfter = args.number<std::size_t>("cancel-after", 0);

    // Persistent cell store: cells load instead of simulating on key
    // hits and flush to disk the moment they finish, which is what
    // makes interrupted sweeps resumable.
    std::unique_ptr<core::ResultCache> cache;
    const std::string results_dir = args.get("results-dir");
    if (args.has("resume") && results_dir.empty())
        shm_fatal("--resume needs --results-dir DIR (the cell store "
                  "the interrupted sweep wrote)");
    if (!results_dir.empty()) {
        cache = std::make_unique<core::ResultCache>(results_dir);
        opts.cache = cache.get();
    }
    core::SweepTally tally;
    opts.tally = &tally;

    json::Value doc;
    try {
        doc = scenario ? sweepScenarios(args, gp, opts)
                       : sweepWorkloads(args, gp, opts);
    } catch (const core::SweepCancelled &cancelled) {
        // Completed cells are kept, not discarded: with a results dir
        // they are already on disk and the sweep is resumable.
        std::printf("sweep cancelled: %zu of %zu cells finished "
                    "(%zu simulated, %zu from cache)\n",
                    cancelled.partial.size(), cancelled.totalCells,
                    tally.simulated, tally.cached);
        if (cache)
            std::printf("partial, resumable: finished cells are in "
                        "%s; rerun the same sweep with --results-dir "
                        "%s to pick up where this one stopped\n",
                        results_dir.c_str(), results_dir.c_str());
        else
            std::printf("partial results lost (no --results-dir; "
                        "pass one to make cancelled sweeps "
                        "resumable)\n");
        return 3;
    }

    if (cache)
        std::printf("cells: %zu simulated, %zu loaded from %s\n",
                    tally.simulated, tally.cached, results_dir.c_str());
    std::string out = args.get("out");
    if (!out.empty()) {
        writeJsonFile(out, doc);
        std::printf("%s results written to %s (%zu cells)\n",
                    scenario ? "scenario sweep" : "sweep", out.c_str(),
                    doc.at("results").size());
    }
    if (!opts.traceDir.empty())
        std::printf("per-cell traces written to %s/\n",
                    opts.traceDir.c_str());
    return 0;
}

/**
 * Summarize an exported Chrome trace_event JSON file: event counts per
 * class and kind, the cycle span, and the first/last detector events
 * (the usual "when did classification settle" question, answerable
 * without loading Perfetto).
 */
int
cmdTraceInfo(const Args &args)
{
    std::string in = args.get("in");
    if (in.empty())
        shm_fatal("trace-info needs --in FILE (a --trace export)");
    json::Value doc = json::Value::parseFile(in);
    if (!doc.isObject() || !doc.contains("traceEvents"))
        shm_fatal("'{}' is not a shmgpu trace export "
                  "(no traceEvents array)", in);
    const json::Value &events = doc.at("traceEvents");

    std::map<std::string, std::uint64_t> by_class;
    std::map<std::string, std::uint64_t> by_kind;
    // Per-tenant attribution (scenario traces stamp every event with
    // its owning tenant; single-workload traces are all tenant 0).
    std::map<std::uint64_t, std::uint64_t> by_tenant;
    std::map<std::uint64_t, std::uint64_t> detect_by_tenant;
    std::uint64_t total = 0;
    double first_ts = 0, last_ts = 0;
    bool have_span = false;
    struct DetectMark
    {
        std::string name;
        double ts = 0;
        std::string payload;
        bool set = false;
    };
    DetectMark first_detect, last_detect;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("ph").asString() != "i")
            continue; // metadata records carry no cycle
        ++total;
        const std::string &cat = e.at("cat").asString();
        const std::string &name = e.at("name").asString();
        double ts = e.at("ts").asNumber();
        ++by_class[cat];
        ++by_kind[name];
        if (!have_span || ts < first_ts)
            first_ts = ts;
        if (!have_span || ts > last_ts)
            last_ts = ts;
        have_span = true;
        std::uint64_t tenant = 0;
        if (e.at("args").contains("tenant"))
            tenant = static_cast<std::uint64_t>(
                e.at("args").at("tenant").asNumber());
        ++by_tenant[tenant];
        if (cat == "detect") {
            ++detect_by_tenant[tenant];
            const std::string &payload =
                e.at("args").at("payload").asString();
            if (!first_detect.set)
                first_detect = {name, ts, payload, true};
            last_detect = {name, ts, payload, true};
        }
    }

    std::printf("%llu events\n", static_cast<unsigned long long>(total));
    if (have_span)
        std::printf("cycle span: %.0f .. %.0f\n", first_ts, last_ts);
    std::puts("per class:");
    for (const auto &[cls, count] : by_class)
        std::printf("  %-8s %llu\n", cls.c_str(),
                    static_cast<unsigned long long>(count));
    std::puts("per kind:");
    for (const auto &[kind, count] : by_kind)
        std::printf("  %-16s %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(count));
    // Only worth a section when the trace actually interleaves
    // tenants; a single-tenant trace would print one all-zeros row.
    if (by_tenant.size() > 1) {
        std::puts("per tenant:");
        for (const auto &[tenant, count] : by_tenant)
            std::printf("  tenant %-3llu %llu events (%llu detect)\n",
                        static_cast<unsigned long long>(tenant),
                        static_cast<unsigned long long>(count),
                        static_cast<unsigned long long>(
                            detect_by_tenant.count(tenant)
                                ? detect_by_tenant.at(tenant)
                                : 0));
    }
    if (first_detect.set) {
        std::printf("first detector event: %s @ cycle %.0f "
                    "(payload %s)\n",
                    first_detect.name.c_str(), first_detect.ts,
                    first_detect.payload.c_str());
        std::printf("last detector event : %s @ cycle %.0f "
                    "(payload %s)\n",
                    last_detect.name.c_str(), last_detect.ts,
                    last_detect.payload.c_str());
    } else {
        std::puts("no detector events (class filtered out or no "
                  "detection activity)");
    }
    return 0;
}

int
cmdTraceRecord(const Args &args)
{
    std::string workload_name = args.get("workload");
    std::string out = args.get("out");
    if (workload_name.empty() || out.empty())
        shm_fatal("trace record needs --workload and --out");
    const auto &w = workload::findWorkload(workload_name);
    const auto sms = args.number<std::uint32_t>("sms", 30);
    if (sms == 0)
        shm_fatal("--sms must be positive (in '{}')", args.command());
    workload::Trace trace = workload::generateTrace(w, sms);
    workload::writeTrace(trace, out);
    std::printf("recorded %llu ops over %zu kernels (%u SMs) to %s\n",
                static_cast<unsigned long long>(trace.totalOps()),
                trace.kernels.size(), trace.numSms, out.c_str());
    return 0;
}

int
cmdTraceFileInfo(const Args &args)
{
    workload::Trace trace = workload::readTrace(args.get("in"));
    std::printf("SMs: %u, kernels: %zu, total ops: %llu\n", trace.numSms,
                trace.kernels.size(),
                static_cast<unsigned long long>(trace.totalOps()));
    for (std::size_t k = 0; k < trace.kernels.size(); ++k)
        std::printf("  kernel %zu: %zu ops, %zu host copies\n", k,
                    trace.kernels[k].records.size(),
                    trace.kernels[k].copies.size());
    return 0;
}

int
cmdTraceRun(const Args &args)
{
    auto trace = std::make_shared<const workload::Trace>(
        workload::readTrace(args.get("in")));
    auto scheme = schemes::schemeFromName(args.get("scheme", "SHM"));
    core::RunOptions opts;
    gpu::GpuParams gp = configFrom(args, opts);
    gp.numSms = trace->numSms;

    // The same measured-run path as a workload: SHM_upper_bound is
    // primed from a Baseline pass over the trace itself.
    const gpu::RunMetrics m =
        core::measure(gp, scheme, workload::singleTenantScenario(trace),
                      opts)
            .total;
    std::printf("trace replay under %s: cycles=%llu ipc=%.2f "
                "util=%.1f%% mdOverhead=%.2f%%\n",
                schemes::schemeName(scheme),
                static_cast<unsigned long long>(m.cycles), m.ipc,
                100 * m.bandwidthUtilization, 100 * m.metadataOverhead());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    // run and sweep each have a workload mode and a scenario mode,
    // told apart before any flag is parsed so each mode accepts only
    // the flags it reads.
    bool scenario = false;
    for (int i = 2; i < argc && (cmd == "run" || cmd == "sweep"); ++i) {
        const std::string_view arg = argv[i];
        scenario = scenario || arg == "--scenario" ||
                   arg.starts_with("--scenario=");
    }
    auto args = [&](std::initializer_list<const char *> allowed) {
        return Args(argc, argv, 2,
                    "shmgpu " + cmd + (scenario ? " --scenario" : ""),
                    allowed);
    };

    if (cmd == "list") {
        args({});
        return cmdList();
    }
    if (cmd == "run" && scenario)
        return cmdRun(args(
            {"scenario", "scheme", "gpu", "cycles", "policy", "overrides",
             "stats", "json", "no-solo", "trace", "trace-text"}), true);
    if (cmd == "run")
        return cmdRun(args(
            {"workload", "spec", "scheme", "gpu", "cycles", "policy",
             "overrides", "stats", "json", "accuracy", "profile", "trace",
             "trace-text"}), false);
    if (cmd == "sweep" && scenario)
        return cmdSweep(args(
            {"scenario", "schemes", "quantums", "share", "tenants",
             "no-solo", "jobs", "gpu", "cycles", "policy", "results-dir",
             "overrides", "out", "quiet"}), true);
    if (cmd == "sweep")
        return cmdSweep(args(
            {"workloads", "schemes", "jobs", "gpu", "cycles", "policy",
             "policies", "zipf-footprints", "zipf-alphas", "results-dir",
             "resume", "cancel-after", "overrides", "out", "quiet",
             "accuracy", "trace"}), false);
    // Check before "trace": that prefix names the workload-trace
    // subcommands, while trace-info summarizes a --trace export.
    if (cmd == "trace-info")
        return cmdTraceInfo(args({"in"}));
    if (cmd == "trace" && argc >= 3) {
        const std::string sub = argv[2];
        const std::string command = "shmgpu trace " + sub;
        if (sub == "record")
            return cmdTraceRecord(Args(argc, argv, 3, command,
                                       {"workload", "out", "sms"}));
        if (sub == "info")
            return cmdTraceFileInfo(Args(argc, argv, 3, command, {"in"}));
        if (sub == "run")
            return cmdTraceRun(Args(argc, argv, 3, command,
                                    {"in", "scheme", "cycles"}));
    }
    const std::string unknown =
        cmd == "trace" && argc >= 3 ? cmd + " " + argv[2] : cmd;
    shm_fatal("unknown command '{}' (run 'shmgpu' for the usage)",
              unknown);
}
