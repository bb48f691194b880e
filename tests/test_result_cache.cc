/**
 * @file
 * ResultCache tests: cell-key sensitivity (every config axis moves
 * the key, equal configs agree), store/load byte round-trips,
 * corrupt-file tolerance, sweep resume equality (cancel at cell K,
 * resume, byte-diff the documents), a key-collision fuzz pass, and a
 * truncation / byte-flip fuzz of the cell loader.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unistd.h>

#include "common/rng.hh"
#include "core/result_cache.hh"
#include "core/scenario.hh"
#include "core/sweep.hh"
#include "workload/benchmarks.hh"

using namespace shmgpu;
using namespace shmgpu::core;

namespace
{

gpu::GpuParams
quickParams()
{
    gpu::GpuParams p;
    p.maxCyclesPerKernel = 20000;
    return p;
}

/** Self-cleaning per-test cache directory under $TMPDIR. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const char *tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("shmgpu-rc-" + std::string(tag) + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

std::uint64_t
keyWith(const gpu::GpuParams &gp, const RunOptions &opts,
        const workload::WorkloadSpec &spec,
        schemes::Scheme scheme = schemes::Scheme::Shm,
        crypto::Backend backend = crypto::Backend::Scalar,
        const std::string &version = "v-test")
{
    return cellKey(gp, gpu::EnergyParams{}, opts, scheme, spec, backend,
                   version);
}

std::string
sweepBytes(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    writeSweepJson(os, results);
    return os.str();
}

} // namespace

TEST(CellKey, EqualConfigsAgree)
{
    auto spec = workload::makeStreamingMicro();
    EXPECT_EQ(keyWith(quickParams(), RunOptions{}, spec),
              keyWith(quickParams(), RunOptions{}, spec));
}

TEST(CellKey, EveryAxisMovesTheKey)
{
    auto spec = workload::makeStreamingMicro();
    const std::uint64_t base = keyWith(quickParams(), RunOptions{}, spec);

    // A GpuParams override (the --overrides / --cycles path).
    gpu::GpuParams assoc = quickParams();
    assoc.l2Assoc *= 2;
    EXPECT_NE(keyWith(assoc, RunOptions{}, spec), base);
    gpu::GpuParams cycles = quickParams();
    cycles.maxCyclesPerKernel += 1;
    EXPECT_NE(keyWith(cycles, RunOptions{}, spec), base);

    // Replacement policies, both the L2 and the metadata-cache knob.
    gpu::GpuParams pol = quickParams();
    pol.l2Policy = mem::PolicyKind::Sieve;
    EXPECT_NE(keyWith(pol, RunOptions{}, spec), base);
    RunOptions mdc;
    mdc.mdcPolicy = mem::PolicyKind::Fifo;
    EXPECT_NE(keyWith(quickParams(), mdc, spec), base);

    // Accuracy collection changes the attribution tallies.
    RunOptions acc;
    acc.collectAccuracy = true;
    EXPECT_NE(keyWith(quickParams(), acc, spec), base);

    // Scheme, workload content, crypto backend, code version.
    EXPECT_NE(keyWith(quickParams(), RunOptions{}, spec,
                      schemes::Scheme::Naive),
              base);
    auto other = workload::makeRandomMicro();
    EXPECT_NE(keyWith(quickParams(), RunOptions{}, other), base);
    EXPECT_NE(keyWith(quickParams(), RunOptions{}, spec,
                      schemes::Scheme::Shm, crypto::Backend::AesNi),
              base);
    EXPECT_NE(keyWith(quickParams(), RunOptions{}, spec,
                      schemes::Scheme::Shm, crypto::Backend::Scalar,
                      "v-other"),
              base);
}

TEST(CellKey, TraceOptionsDoNotSplitTheCache)
{
    // Tracing observes a run without changing its results, so traced
    // and untraced sweeps must share cells.
    auto spec = workload::makeStreamingMicro();
    RunOptions traced;
    traced.tracePath = "/tmp/evtrace.json";
    traced.traceDir = "/tmp/traces";
    EXPECT_EQ(keyWith(quickParams(), traced, spec),
              keyWith(quickParams(), RunOptions{}, spec));
}

TEST(CellKey, ZipfAlphaReachesTheKeyThroughContentHash)
{
    auto a = workload::makeZipfSpec(1 << 20, 0.5);
    auto b = workload::makeZipfSpec(1 << 20, 0.9);
    // Same footprint, same name lengths, different skew: the specs'
    // content must separate the cells.
    EXPECT_NE(workload::contentHash(a), workload::contentHash(b));
    EXPECT_NE(keyWith(quickParams(), RunOptions{}, a),
              keyWith(quickParams(), RunOptions{}, b));
}

TEST(ResultCache, MissOnEmptyDirectory)
{
    TempDir dir("miss");
    ResultCache cache(dir.str());
    ExperimentResult out;
    EXPECT_FALSE(cache.load(0x1234, &out));
}

TEST(ResultCache, StoreLoadRoundTripsByteIdentically)
{
    TempDir dir("roundtrip");
    ResultCache cache(dir.str());

    auto spec = workload::makeStreamingMicro();
    Experiment exp(quickParams());
    ExperimentResult fresh =
        exp.run(schemes::Scheme::Shm, spec, RunOptions{});

    const std::uint64_t key = keyWith(quickParams(), RunOptions{}, spec);
    cache.store(key, fresh);
    ExperimentResult loaded;
    ASSERT_TRUE(cache.load(key, &loaded));

    // The resume byte-identity contract, stated at its root: the
    // loaded cell serializes to exactly the bytes the fresh one does.
    EXPECT_EQ(resultToJson(loaded).dump(2), resultToJson(fresh).dump(2));
}

TEST(ResultCache, CorruptOrForeignFilesAreMisses)
{
    TempDir dir("corrupt");
    ResultCache cache(dir.str());
    const std::uint64_t key = 0xabcdef12345678ull;
    const std::string path =
        dir.str() + "/" + ResultCache::fileName(key);

    auto write_file = [&](const std::string &text) {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    };
    ExperimentResult out;

    write_file("not json at all {{{");
    EXPECT_FALSE(cache.load(key, &out));

    write_file("{\"schemaVersion\": 1}"); // missing members
    EXPECT_FALSE(cache.load(key, &out));

    write_file("{\"schemaVersion\": 999, \"key\": \"x\", "
               "\"result\": {}}"); // future schema
    EXPECT_FALSE(cache.load(key, &out));

    // A real cell renamed onto the wrong key (hand-copied directory).
    write_file("{\"schemaVersion\": 1, \"key\": \"cell-feed.json\", "
               "\"result\": {}}");
    EXPECT_FALSE(cache.load(key, &out));

    write_file(""); // truncated to nothing
    EXPECT_FALSE(cache.load(key, &out));
}

TEST(ResultCache, SweepSecondRunIsAllCacheHits)
{
    TempDir dir("warm");
    ResultCache cache(dir.str());

    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {&stream,
                                                             &random};
    std::vector<schemes::Scheme> designs = {schemes::Scheme::Naive,
                                            schemes::Scheme::Shm};

    SweepOptions opts;
    opts.cache = &cache;
    SweepTally cold, warm;

    SweepRunner runner(quickParams());
    opts.tally = &cold;
    auto first = runner.run(designs, workloads, opts);
    EXPECT_EQ(cold.simulated, 4u);
    EXPECT_EQ(cold.cached, 0u);

    opts.tally = &warm;
    auto second = runner.run(designs, workloads, opts);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, 4u);

    EXPECT_EQ(sweepBytes(first), sweepBytes(second));
}

TEST(ResultCache, CancelAtCellKThenResumeIsByteIdentical)
{
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    workload::WorkloadSpec mixed = workload::makeMixedMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {
        &stream, &random, &mixed};
    std::vector<schemes::Scheme> designs = {schemes::Scheme::Naive,
                                            schemes::Scheme::Shm};

    // The reference document: one uninterrupted, uncached sweep.
    SweepRunner runner(quickParams());
    const std::string reference =
        sweepBytes(runner.run(designs, workloads, SweepOptions{}));

    for (std::size_t k : {std::size_t{1}, std::size_t{3}}) {
        TempDir dir("resume");
        ResultCache cache(dir.str());
        SweepOptions opts;
        opts.cache = &cache;
        opts.cancelAfter = k;

        try {
            runner.run(designs, workloads, opts);
            FAIL() << "cancelAfter=" << k << " did not cancel";
        } catch (const SweepCancelled &cancelled) {
            EXPECT_EQ(cancelled.totalCells, 6u);
            EXPECT_GE(cancelled.partial.size(), k);
            EXPECT_LT(cancelled.partial.size(), 6u);
        }

        // Resume: the killed sweep's cells load, the rest simulate,
        // and the final document matches the uninterrupted run byte
        // for byte.
        SweepTally tally;
        opts.cancelAfter = 0;
        opts.tally = &tally;
        auto resumed = runner.run(designs, workloads, opts);
        EXPECT_GE(tally.cached, k) << "resume lost finished cells";
        EXPECT_EQ(tally.simulated + tally.cached, 6u);
        EXPECT_EQ(sweepBytes(resumed), reference);
    }
}

TEST(ResultCache, ResumeEqualityHoldsAcrossJobCounts)
{
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {&stream,
                                                             &random};
    std::vector<schemes::Scheme> designs = {schemes::Scheme::Naive,
                                            schemes::Scheme::Pssm,
                                            schemes::Scheme::Shm};

    SweepRunner runner(quickParams());
    const std::string reference =
        sweepBytes(runner.run(designs, workloads, SweepOptions{}));

    TempDir dir("jobs");
    ResultCache cache(dir.str());
    SweepOptions opts;
    opts.cache = &cache;
    opts.jobs = 4;
    opts.cancelAfter = 2;
    EXPECT_THROW(runner.run(designs, workloads, opts), SweepCancelled);

    // Finish with a different job count than the interrupted run.
    opts.jobs = 1;
    opts.cancelAfter = 0;
    EXPECT_EQ(sweepBytes(runner.run(designs, workloads, opts)),
              reference);
}

TEST(ResultCache, CancelWithoutCacheStillReportsPartialResults)
{
    workload::WorkloadSpec stream = workload::makeStreamingMicro();
    workload::WorkloadSpec random = workload::makeRandomMicro();
    std::vector<const workload::WorkloadSpec *> workloads = {&stream,
                                                             &random};
    std::vector<schemes::Scheme> designs = {schemes::Scheme::Shm};

    SweepRunner runner(quickParams());
    SweepOptions opts;
    opts.cancelAfter = 1;
    try {
        runner.run(designs, workloads, opts);
        FAIL() << "expected cancellation";
    } catch (const SweepCancelled &cancelled) {
        EXPECT_EQ(cancelled.totalCells, 2u);
        ASSERT_EQ(cancelled.partial.size(), 1u);
        // The kept cell is a real result, not a default-constructed
        // placeholder.
        EXPECT_GT(cancelled.partial[0].metrics.cycles, 0u);
    }
}

TEST(ResultCacheFuzz, NoKeyCollisionsAcrossAConfigLattice)
{
    // Walk a lattice of config variations — the axes a real sweep
    // moves — and require every cell key to be unique. 64-bit FNV
    // over ~1.5k keys makes an accidental collision astronomically
    // unlikely unless the fingerprint drops a field.
    std::set<std::uint64_t> keys;
    std::size_t produced = 0;

    std::vector<workload::WorkloadSpec> specs;
    for (std::uint64_t fp : {1u << 18, 1u << 20, 3u << 19})
        for (double alpha : {0.2, 0.8, 1.0, 1.3})
            specs.push_back(workload::makeZipfSpec(fp, alpha));
    specs.push_back(workload::makeStreamingMicro());
    specs.push_back(workload::makeRandomMicro());

    for (const auto &spec : specs) {
        for (auto scheme :
             {schemes::Scheme::Naive, schemes::Scheme::Shm}) {
            for (auto policy :
                 {mem::PolicyKind::Lru, mem::PolicyKind::Sieve}) {
                for (std::uint64_t cycles : {10000u, 20000u}) {
                    for (auto backend : {crypto::Backend::Scalar,
                                         crypto::Backend::AesNi}) {
                        for (const char *ver : {"a", "b", "ab"}) {
                            gpu::GpuParams gp = quickParams();
                            gp.l2Policy = policy;
                            gp.maxCyclesPerKernel = cycles;
                            RunOptions run;
                            run.mdcPolicy = policy;
                            keys.insert(keyWith(gp, run, spec, scheme,
                                                backend, ver));
                            ++produced;
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(keys.size(), produced);
}

TEST(ResultCacheFuzz, StoredCellsSurviveRereadUnderEveryKey)
{
    // Store one real result under many keys and re-load each: the
    // per-file key stamp must route every load to its own bytes.
    TempDir dir("stamps");
    ResultCache cache(dir.str());

    auto spec = workload::makeStreamingMicro();
    Experiment exp(quickParams());
    ExperimentResult r =
        exp.run(schemes::Scheme::Naive, spec, RunOptions{});

    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 64; ++i)
        keys.push_back(0x1000 + i * 0x77);
    for (auto k : keys)
        cache.store(k, r);
    for (auto k : keys) {
        ExperimentResult out;
        ASSERT_TRUE(cache.load(k, &out));
        EXPECT_EQ(resultToJson(out).dump(2), resultToJson(r).dump(2));
    }
}

namespace
{

/**
 * Truncate and byte-flip the cell file at @p path (as @p store left
 * it) and call @p load on each mutation: a load must never crash, and
 * a hit must return exactly what was stored (@p stored, as JSON
 * text). Returns the number of mutations that loaded.
 */
template <typename LoadFn>
std::size_t
fuzzCellFile(const std::string &path, const std::string &stored,
             LoadFn load)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string intact = os.str();
    EXPECT_FALSE(intact.empty());

    std::vector<std::string> inputs;
    for (std::size_t n = 0; n < intact.size(); ++n)
        inputs.push_back(intact.substr(0, n));
    Rng rng(31);
    for (int trial = 0; trial < 512; ++trial) {
        std::string flipped = intact;
        const int flips = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < flips; ++i)
            flipped[rng.below(flipped.size())] ^=
                static_cast<char>(1 + rng.below(255));
        inputs.push_back(flipped);
    }

    std::size_t hits = 0;
    for (const std::string &input : inputs) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << input;
        }
        std::string loaded;
        if (load(&loaded)) {
            ++hits;
            EXPECT_EQ(loaded, stored) << "a mangled cell loaded wrong "
                                         "data:\n"
                                      << input;
        }
    }
    return hits;
}

} // namespace

TEST(ResultCacheFuzz, TruncatedOrGarbledCellsAreMisses)
{
    TempDir dir("garble");
    ResultCache cache(dir.str());
    const std::uint64_t key = 0x5eed;
    const std::string path = dir.str() + "/" + ResultCache::fileName(key);

    auto spec = workload::makeStreamingMicro();
    Experiment exp(quickParams());
    ExperimentResult r = exp.run(schemes::Scheme::Shm, spec, RunOptions{});
    cache.store(key, r);
    const std::string stored = resultToJson(r).dump(2);

    // A flip inside the codeVersion stamp or whitespace may leave the
    // payload intact (then it loads, unchanged); nothing else may.
    std::size_t hits = fuzzCellFile(path, stored, [&](std::string *out) {
        ExperimentResult loaded;
        if (!cache.load(key, &loaded))
            return false;
        *out = resultToJson(loaded).dump(2);
        return true;
    });
    EXPECT_LT(hits, 64u) << "most mutations must be misses";

    // A scenario cell: same contract, other payload kind.
    ScenarioExperimentResult sr;
    sr.scenario = "mix2";
    sr.scheme = "SHM";
    sr.sharePolicy = "timeslice";
    sr.quantumCycles = 10000;
    sr.metrics.total = r.metrics;
    sr.metrics.contextSwitches = 7;
    sr.meanSlowdown = 1.25;
    for (const char *name : {"atax", "bfs"}) {
        ScenarioTenantResult t;
        t.shared.name = name;
        t.shared.instructions = 12345;
        t.shared.ipc = 0.75;
        t.soloIpc = 0.9;
        t.slowdown = 1.2;
        sr.tenants.push_back(t);
        sr.metrics.tenants.push_back(t.shared);
    }
    const std::uint64_t skey = 0x5cea;
    storeScenarioCell(cache, skey, sr);
    hits = fuzzCellFile(
        dir.str() + "/" + ResultCache::fileName(skey),
        scenarioResultToJson(sr).dump(2), [&](std::string *out) {
            ScenarioExperimentResult loaded;
            if (!loadScenarioCell(cache, skey, &loaded))
                return false;
            *out = scenarioResultToJson(loaded).dump(2);
            return true;
        });
    EXPECT_LT(hits, 64u);
}
