/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its
 * metrics. The last line of standard output is the result:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * they are the per-layer set, and the run's spans are written to
 * .bench_build/perfbench-work/traces/ below the repository root.
 * Lines before the result carry the run's stamps (build type,
 * compiler, host cores, crypto backend, code version, seed) and extra
 * facts such as the tail percentile and sample count.
 *
 *   perfbench_driver --workload paper-grid|secure-rw|tenant-mix
 *                    --seed N --seconds S --trace 0|1
 *                    [--smoke] [--repo-root DIR]
 *   perfbench_driver --self-test
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "core/result_cache.hh"
#include "crypto/dispatch.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_GIT_REV
#define PERFBENCH_GIT_REV "unknown"
#endif

namespace
{

using namespace perfbench;
using shmgpu::json::Value;

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload "
                 "paper-grid|secure-rw|tenant-mix --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--repo-root DIR]\n"
                 "       perfbench_driver --self-test\n",
                 why.c_str());
    std::exit(2);
}

/** The tail rule and median on known inputs. */
int
selfTest()
{
    Checks checks;
    checks.expect(!tailIndex(21).has_value(),
                  "no tail while n - 11 is not above the median");
    checks.expect(tailIndex(22) == 11u, "22 samples: index 11");
    checks.expect(tailIndex(64) == 53u, "64 samples: index 53");
    checks.expect(tailIndex(1000) == 989u, "1000 samples: index 989");
    for (std::size_t n : {22, 48, 64, 1000}) {
        std::vector<double> v;
        for (std::size_t i = n; i > 0; --i)
            v.push_back(static_cast<double>(i)); // descending input
        const Tail t = tailOf(v);
        std::size_t beyond = 0;
        for (double x : v)
            beyond += x > t.value;
        checks.expect(t.tenBeyond && beyond == 10,
                      "tail of " + std::to_string(n) +
                          " samples has ten beyond it");
    }
    const Tail small = tailOf({3, 1, 2, 9, 4, 5, 6, 7, 8, 10, 11, 12});
    checks.expect(!small.tenBeyond && small.value == 12,
                  "below 22 samples the tail is the maximum");
    checks.expect(perOperationMedians({1, 10, 3, 2, 20, 1, 3, 30, 2}, 3) ==
                      std::vector<double>{2, 20, 2},
                  "per-operation medians over three passes");
    {
        // Two passes of two operations; the host ran 2x slow during
        // the second operation of each pass.
        Outcome o;
        fillOpMetrics({0.1, 0.4, 0.1, 0.4}, {1, 2, 1, 2}, 2, 2.0, o);
        checks.expect(o.values["op_ms_p50"] == 150 &&
                          o.values["op_ms_tail"] == 200,
                      "operation latencies divided by the slowdown");
        checks.expect(o.values["ops_per_s"] == 4 / (2.0 / (1.0 / 0.6)),
                      "throughput scaled by the slowdown over all "
                      "operations");
    }
    checks.expect(median({4, 1, 3, 2}) == 2.5, "even median");
    checks.expect(median({5, 1, 3}) == 3, "odd median");
    checks.expect(slope({1, 2, 3}, {2, 4, 6}) == 2, "slope");
    std::printf("self-test: %llu checks, %llu failed\n",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()));
    return checks.failed() == 0 ? 0 : 1;
}

RunConfig
parseArgs(int argc, char **argv)
{
    RunConfig c;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                c.workload = value();
                have_workload = true;
            } else if (a == "--seed") {
                c.seed = std::stoull(value());
                have_seed = true;
            } else if (a == "--seconds") {
                c.seconds = std::stod(value());
                have_seconds = c.seconds > 0;
            } else if (a == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                c.trace = t == "1";
                have_trace = true;
            } else if (a == "--smoke") {
                c.smoke = true;
            } else if (a == "--repo-root") {
                c.repoRoot = value();
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    c.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    return c;
}

Value
stamps(const RunConfig &c)
{
    Value v = Value::object();
    v["workload"] = c.workload;
    v["seed"] = c.seed;
    v["seconds"] = c.seconds;
    v["trace"] = c.trace;
    v["smoke"] = c.smoke;
    v["buildType"] = PERFBENCH_BUILD_TYPE;
    v["compiler"] = PERFBENCH_COMPILER;
    v["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
    v["jobs"] = static_cast<std::uint64_t>(c.jobs);
    v["cryptoBackend"] =
        shmgpu::crypto::backendName(shmgpu::crypto::activeBackend());
    v["codeVersion"] = shmgpu::core::codeVersion();
    v["gitRev"] = PERFBENCH_GIT_REV;
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
        return selfTest();

    const auto process_start = Clock::now();
    const RunConfig config = parseArgs(argc, argv);

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type.empty() || build_type == "Debug") {
        std::fprintf(stderr,
                     "perfbench_driver: refusing to report timings from a "
                     "build with CMAKE_BUILD_TYPE '%s'; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 2;
    }

    Outcome (*run)(const RunConfig &, Checks &, SpanRecorder &) = nullptr;
    if (config.workload == "paper-grid")
        run = runPaperGrid;
    else if (config.workload == "secure-rw")
        run = runSecureRw;
    else if (config.workload == "tenant-mix")
        run = runTenantMix;
    else
        usage("unknown workload '" + config.workload + "'");

    shmgpu::log_detail::setVerbose(false);
    const Value config_stamps = stamps(config);
    std::printf("config: %s\n", config_stamps.dump(0).c_str());
    std::fflush(stdout);

    // The host-speed probe's lines are allocated before anything the
    // program allocates, so the peak resident set holds them whole and
    // peak_rss_mb can leave them out exactly.
    hostSlowdown();
    Checks checks;
    SpanRecorder spans(config.trace);
    Outcome outcome = run(config, checks, spans);

    const auto table = metricTable(config.repoRoot, config.trace);
    if (config.trace) {
        outcome.values["error_rate"] =
            checks.attempted() ? static_cast<double>(checks.failed()) /
                                     static_cast<double>(checks.attempted())
                               : 0;
    } else {
        outcome.values["peak_rss_mb"] = peakRssMb() - hostProbeMb();
    }
    Value metrics = Value::object();
    for (const auto &[name, unit] : table) {
        Value m = Value::object();
        const auto it = outcome.values.find(name);
        m["value"] = it == outcome.values.end() ? 0.0 : it->second;
        m["unit"] = unit;
        metrics[name] = std::move(m);
    }
    for (const auto &[name, value] : outcome.values) {
        if (!metrics.contains(name)) {
            std::fprintf(stderr, "perfbench_driver: metric '%s' is not "
                                 "listed in BENCHMARK.json\n",
                         name.c_str());
            return 3;
        }
    }

    if (config.trace) {
        const std::string dir = config.workDir() + "/traces";
        std::filesystem::create_directories(dir);
        const std::string path = dir + "/" + config.workload + "-seed" +
                                 std::to_string(config.seed) + ".json";
        spans.writeJson(path, config_stamps);
        outcome.info["trace"] = path;
        outcome.info["spans"] = static_cast<std::uint64_t>(spans.size());
    }
    outcome.info["processSeconds"] = secondsSince(process_start);
    std::printf("info: %s\n", outcome.info.dump(0).c_str());

    Value result = Value::object();
    result["correct"] = checks.failed() == 0;
    result["attempted"] = checks.attempted();
    result["failed"] = checks.failed();
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump(0).c_str());
    return 0;
}
