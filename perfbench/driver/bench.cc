#include "bench.hh"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>

#include "common/rng.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace
{

/** The probe walks kProbeLines cache lines, one in each kProbeSlot
 *  bytes at a random offset (so they fill every cache set): 512 KiB of
 *  lines, within a core's L2 cache, spread over 8 MiB and so over 2048
 *  pages. */
constexpr std::uint32_t kProbeLines = 8192;
constexpr std::uint32_t kProbeSlot = 1024 / sizeof(std::uint32_t);
constexpr std::uint32_t kLineWords = 64 / sizeof(std::uint32_t);
constexpr std::uint32_t kProbeSteps = 250000;
/** The walk's thread CPU seconds on a quiet host: about its fastest
 *  on a 4-vCPU Sapphire Rapids guest (GCC 12.2, Release). */
constexpr double kQuietProbeSeconds = 4e-3;

std::atomic<std::uint32_t> probeSink{0};

} // namespace

double
hostSlowdown()
{
    // One random cycle through every line (Sattolo's shuffle): each
    // step is a load the previous one must finish first, at an address
    // neither the prefetchers nor the first-level TLB can anticipate.
    // The walk starts at line 0, which sits at the start of its slot.
    static const std::vector<std::uint32_t> next = [] {
        shmgpu::Rng rng(kProbeLines);
        std::vector<std::uint32_t> order(kProbeLines);
        std::iota(order.begin(), order.end(), 0u);
        for (std::uint32_t i = kProbeLines - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i)]);
        std::vector<std::uint32_t> at(kProbeLines, 0);
        for (std::uint32_t i = 1; i < kProbeLines; ++i)
            at[i] = i * kProbeSlot +
                    static_cast<std::uint32_t>(
                        rng.below(kProbeSlot / kLineWords)) *
                        kLineWords;
        std::vector<std::uint32_t> v(kProbeLines * kProbeSlot);
        for (std::uint32_t i = 0; i < kProbeLines; ++i)
            v[at[i]] = at[order[i]];
        return v;
    }();
    const double t0 = threadCpuSeconds();
    std::uint32_t at = 0;
    for (std::uint32_t k = 0; k < kProbeSteps; ++k)
        at = next[at];
    const double seconds = threadCpuSeconds() - t0;
    probeSink.store(at, std::memory_order_relaxed);
    return seconds / kQuietProbeSeconds;
}

double
hostProbeMb()
{
    return static_cast<double>(kProbeLines * kProbeSlot *
                               sizeof(std::uint32_t)) /
           (1024.0 * 1024.0);
}

std::uint64_t
derivedSeed(std::uint64_t seed, std::uint64_t original)
{
    if (seed == kDefaultSeed)
        return original;
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + original;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++nAttempted;
    if (ok)
        return;
    if (nFailed < 10)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    ++nFailed;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2)
        return v[mid];
    const double upper = v[mid];
    const double lower = *std::max_element(v.begin(), v.begin() + mid);
    return (lower + upper) / 2;
}

int
passesFor(double seconds, double nominal_pass_seconds)
{
    return std::max(1, static_cast<int>(
                           std::lround(seconds / nominal_pass_seconds)));
}

SetupTimer::SetupTimer(std::function<void()> setup, int passes, int batch)
    : fn(std::move(setup)), roundsLeft(passes + 1), batch(batch)
{
}

void
SetupTimer::round()
{
    if (roundsLeft == 0)
        return;
    const int reps = repsLeft / roundsLeft--;
    repsLeft -= reps;
    for (int r = 0; r < reps; ++r) {
        const double slowdown = hostSlowdown();
        const auto t0 = Clock::now();
        for (int i = 0; i < batch; ++i)
            fn();
        samples.push_back(secondsSince(t0) / batch / slowdown);
    }
}

double
SetupTimer::median() const
{
    return perfbench::median(samples);
}

std::optional<std::size_t>
tailIndex(std::size_t n)
{
    if (n < 22)
        return std::nullopt;
    return n - 11;
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    const auto idx = tailIndex(v.size());
    const std::size_t i = idx.value_or(v.size() - 1);
    std::nth_element(v.begin(), v.begin() + i, v.end());
    t.value = v[i];
    t.tenBeyond = idx.has_value();
    t.percentile = 100.0 * static_cast<double>(i + 1) /
                   static_cast<double>(v.size());
    return t;
}

std::vector<double>
perOperationMedians(const std::vector<double> &samples, std::size_t per_pass)
{
    std::vector<double> out;
    for (std::size_t k = 0; k < per_pass; ++k) {
        std::vector<double> op;
        for (std::size_t i = k; i < samples.size(); i += per_pass)
            op.push_back(samples[i]);
        out.push_back(median(std::move(op)));
    }
    return out;
}

void
fillOpMetrics(const std::vector<double> &cpu_seconds,
              const std::vector<double> &slowdown, std::size_t per_pass,
              double wall, Outcome &out)
{
    std::vector<double> raw_ms, adjusted_ms;
    for (std::size_t i = 0; i < cpu_seconds.size(); ++i) {
        raw_ms.push_back(cpu_seconds[i] * 1e3);
        adjusted_ms.push_back(cpu_seconds[i] * 1e3 / slowdown[i]);
    }
    auto sum = [](const std::vector<double> &v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    const double mean_slowdown = sum(raw_ms) / sum(adjusted_ms);
    const double ops = static_cast<double>(cpu_seconds.size());

    const std::vector<double> raw_lat = perOperationMedians(raw_ms, per_pass);
    const std::vector<double> lat = perOperationMedians(adjusted_ms, per_pass);
    const Tail tail = tailOf(lat);
    out.values["ops_per_s"] = ops / (wall / mean_slowdown);
    out.values["op_ms_p50"] = median(lat);
    out.values["op_ms_tail"] = tail.value;
    out.info["opTail"] = tailInfo(tail);
    out.info["hostSlowdown"] = mean_slowdown;
    auto raw = shmgpu::json::Value::object();
    raw["ops_per_s"] = ops / wall;
    raw["op_ms_p50"] = median(raw_lat);
    raw["op_ms_tail"] = tailOf(raw_lat).value;
    out.info["raw"] = raw;
}

shmgpu::json::Value
tailInfo(const Tail &tail)
{
    auto v = shmgpu::json::Value::object();
    v["percentile"] = tail.percentile;
    v["samples"] = static_cast<std::uint64_t>(tail.samples);
    v["tenBeyond"] = tail.tenBeyond;
    return v;
}

double
slope(const std::vector<double> &x, const std::vector<double> &y)
{
    const std::size_t n = std::min(x.size(), y.size());
    if (n < 2)
        return 0;
    double mx = 0, my = 0;
    for (std::size_t i = 0; i < n; ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0, sxx = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
    }
    return sxx > 0 ? sxy / sxx : 0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
digest(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
checkAcrossRuns(const RunConfig &config, const std::string &results_digest,
                Checks &checks)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(config.workDir()) / "digests";
    fs::create_directories(dir);
    // Keyed by this executable's own digest too, so a rebuilt program
    // never compares against another build's results.
    static const std::string build = [] {
        std::ifstream exe("/proc/self/exe", std::ios::binary);
        return digest(std::string(std::istreambuf_iterator<char>(exe), {}));
    }();
    const fs::path file =
        dir / (config.workload + "-seed" + std::to_string(config.seed) +
               (config.smoke ? "-smoke-" : "-") + build + ".txt");
    std::ifstream in(file);
    std::string recorded;
    if (in >> recorded) {
        checks.expect(recorded == results_digest,
                      config.workload + " results identical to earlier "
                                        "runs with the same seed");
        return;
    }
    const fs::path tmp = file.string() + ".tmp" +
                         std::to_string(static_cast<long>(::getpid()));
    std::ofstream(tmp) << results_digest << "\n";
    fs::rename(tmp, file);
}

namespace
{

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::uint32_t
SpanRecorder::open(const char *name, std::uint32_t parent)
{
    if (!on)
        return kNoParent;
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, now, now, parent, threadNumber()});
    return static_cast<std::uint32_t>(spans.size() - 1);
}

void
SpanRecorder::close(std::uint32_t id)
{
    if (id == kNoParent)
        return;
    const auto now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch)
            .count());
    std::lock_guard<std::mutex> lock(mutex);
    spans[id].endNs = now;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

void
SpanRecorder::writeJson(const std::string &path,
                        const shmgpu::json::Value &config,
                        std::size_t max_events) const
{
    using shmgpu::json::Value;
    std::lock_guard<std::mutex> lock(mutex);

    // Self time: each span minus the union of its children's
    // intervals (children of one parent may overlap when they ran on
    // several pool threads).
    std::vector<std::vector<std::uint32_t>> children(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != kNoParent)
            children[spans[i].parent].push_back(i);
    }
    struct Summary
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t selfNs = 0;
    };
    std::map<std::string, Summary> summary;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::uint32_t c : children[i])
            iv.emplace_back(spans[c].startNs, spans[c].endNs);
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.startNs;
        for (auto [b, e] : iv) {
            b = std::max(b, reach);
            e = std::min(e, s.endNs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        Summary &sum = summary[s.name];
        ++sum.count;
        sum.totalNs += s.endNs - s.startNs;
        sum.selfNs += s.endNs - s.startNs - covered;
    }

    Value doc = Value::object();
    doc["config"] = config;
    Value names = Value::object();
    for (const auto &[name, sum] : summary) {
        Value v = Value::object();
        v["count"] = sum.count;
        v["totalSeconds"] = static_cast<double>(sum.totalNs) * 1e-9;
        v["selfSeconds"] = static_cast<double>(sum.selfNs) * 1e-9;
        names[name] = std::move(v);
    }
    doc["spanSummary"] = std::move(names);
    doc["spansRecorded"] = static_cast<std::uint64_t>(spans.size());
    doc["spansWritten"] = static_cast<std::uint64_t>(
        std::min(spans.size(), max_events));
    doc["displayTimeUnit"] = "ms";
    Value events = Value::array();
    for (std::uint32_t i = 0; i < spans.size() && i < max_events; ++i) {
        const Span &s = spans[i];
        Value e = Value::object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = static_cast<std::uint64_t>(s.tid);
        e["ts"] = static_cast<double>(s.startNs) / 1000.0;
        e["dur"] = static_cast<double>(s.endNs - s.startNs) / 1000.0;
        Value args = Value::object();
        args["id"] = static_cast<std::uint64_t>(i);
        if (s.parent != kNoParent)
            args["parent"] = static_cast<std::uint64_t>(s.parent);
        e["args"] = std::move(args);
        events.append(std::move(e));
    }
    doc["traceEvents"] = std::move(events);

    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                     path.c_str());
        return;
    }
    doc.write(os, 0);
    os << "\n";
}

std::vector<std::pair<std::string, std::string>>
metricTable(const std::string &repo_root, bool traced)
{
    const auto doc =
        shmgpu::json::Value::parseFile(repo_root + "/BENCHMARK.json");
    const auto &list = doc.at(traced ? "per_layer" : "end_to_end");
    std::vector<std::pair<std::string, std::string>> table;
    for (std::size_t i = 0; i < list.size(); ++i) {
        table.emplace_back(list.at(i).at("name").asString(),
                           list.at(i).at("unit").asString());
    }
    return table;
}

} // namespace perfbench
