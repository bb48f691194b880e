/**
 * @file
 * Trace record/replay tests: file round-trip, replay fidelity,
 * trace-driven simulation, and reader robustness (randomized
 * round-trips; corrupt and truncated files must produce an error
 * message, never a crash or a runaway allocation).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;
using namespace shmgpu::workload;

namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test *and* process: ctest -j runs each test of
        // this fixture in its own concurrent process, so a fixed name
        // lets parallel tests clobber each other's file.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "shmgpu_trace_" +
               info->name() + "_" + std::to_string(::getpid()) +
               ".trace";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

} // namespace

TEST_F(TraceFileTest, GenerateCoversAllKernels)
{
    WorkloadSpec w = makeMultiKernelMicro();
    Trace trace = generateTrace(w, 4);
    EXPECT_EQ(trace.numSms, 4u);
    ASSERT_EQ(trace.kernels.size(), 3u);
    // Kernels 0 and 2 carry the host copy that refreshes 'in'.
    EXPECT_EQ(trace.kernels[0].copies.size(), 1u);
    EXPECT_EQ(trace.kernels[1].copies.size(), 0u);
    EXPECT_EQ(trace.kernels[2].copies.size(), 1u);
    // 1024 iterations x 2 streams x 4 SMs per kernel.
    EXPECT_EQ(trace.kernels[0].records.size(), 1024u * 2 * 4);
}

TEST_F(TraceFileTest, FileRoundTripIsLossless)
{
    WorkloadSpec w = makeMixedMicro();
    Trace original = generateTrace(w, 3);
    writeTrace(original, path);
    Trace loaded = readTrace(path);

    ASSERT_EQ(loaded.numSms, original.numSms);
    ASSERT_EQ(loaded.kernels.size(), original.kernels.size());
    for (std::size_t k = 0; k < original.kernels.size(); ++k) {
        const auto &a = original.kernels[k];
        const auto &b = loaded.kernels[k];
        EXPECT_EQ(a.window, b.window);
        EXPECT_EQ(a.window, w.kernels[k].maxOutstanding);
        ASSERT_EQ(a.records.size(), b.records.size());
        ASSERT_EQ(a.copies.size(), b.copies.size());
        for (std::size_t i = 0; i < a.records.size(); ++i) {
            EXPECT_EQ(a.records[i].op.addr, b.records[i].op.addr);
            EXPECT_EQ(a.records[i].op.type, b.records[i].op.type);
            EXPECT_EQ(a.records[i].op.space, b.records[i].op.space);
            EXPECT_EQ(a.records[i].op.computeInstrs,
                      b.records[i].op.computeInstrs);
            EXPECT_EQ(a.records[i].op.bytes, b.records[i].op.bytes);
            EXPECT_EQ(a.records[i].sm, b.records[i].sm);
        }
        for (std::size_t i = 0; i < a.copies.size(); ++i) {
            EXPECT_EQ(a.copies[i].base, b.copies[i].base);
            EXPECT_EQ(a.copies[i].bytes, b.copies[i].bytes);
        }
    }
}

TEST_F(TraceFileTest, ReplayReturnsRecordedPerSmStreams)
{
    WorkloadSpec w = makeStreamingMicro(1 << 20, 64);
    Trace trace = generateTrace(w, 2);
    TraceReplay replay(trace, 0);

    // Drain SM 1 first, then SM 0: per-SM streams are independent.
    std::vector<Addr> sm1;
    TraceOp op;
    while (replay.next(1, op))
        sm1.push_back(op.addr);
    EXPECT_FALSE(replay.done());
    std::vector<Addr> sm0;
    while (replay.next(0, op))
        sm0.push_back(op.addr);
    EXPECT_TRUE(replay.done());

    // Cross-check against the recorded file order.
    std::vector<Addr> expect0, expect1;
    for (const auto &rec : trace.kernels[0].records)
        (rec.sm == 0 ? expect0 : expect1).push_back(rec.op.addr);
    EXPECT_EQ(sm0, expect0);
    EXPECT_EQ(sm1, expect1);
}

TEST_F(TraceFileTest, TraceDrivenSimulationMatchesTraceVolume)
{
    WorkloadSpec w = makeMixedMicro();
    Trace trace = generateTrace(w, 30);
    writeTrace(trace, path);
    auto loaded = std::make_shared<const Trace>(readTrace(path));

    gpu::GpuParams gp;
    gp.maxCyclesPerKernel = 60000;
    // Every recorded op retires one memory instruction plus its
    // compute instructions.
    std::uint64_t expected = 0;
    for (const auto &k : loaded->kernels)
        for (const auto &rec : k.records)
            expected += 1 + rec.op.computeInstrs;
    // A lone tenant owns the whole GPU under either share policy.
    for (auto policy :
         {SharePolicy::TimeSliced, SharePolicy::Partitioned}) {
        ScenarioSpec scn = singleTenantScenario(loaded);
        scn.policy = policy;
        gpu::GpuSimulator sim(
            gp, schemes::makeMeeParams(schemes::Scheme::Shm), scn);
        gpu::RunMetrics m = sim.run().total;
        EXPECT_GT(m.cycles, 0u);
        EXPECT_EQ(m.instructions, expected) << sharePolicyName(policy);
        EXPECT_GT(m.sharedCtrReads, 0u)
            << "host copies were replayed under "
            << sharePolicyName(policy);
    }
}

TEST_F(TraceFileTest, TraceDrivenRunIsDeterministic)
{
    WorkloadSpec w = makeRandomMicro(1 << 20, 512);
    const auto scn = singleTenantScenario(
        std::make_shared<const Trace>(generateTrace(w, 30)));

    gpu::GpuParams gp;
    gp.maxCyclesPerKernel = 60000;
    auto run = [&] {
        gpu::GpuSimulator sim(
            gp, schemes::makeMeeParams(schemes::Scheme::Pssm), scn);
        return sim.run().total;
    };
    gpu::RunMetrics a = run();
    gpu::RunMetrics b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.metadataBytes(), b.metadataBytes());
}

TEST_F(TraceFileTest, SmCountMismatchIsFatal)
{
    WorkloadSpec w = makeMixedMicro();
    const auto scn = singleTenantScenario(
        std::make_shared<const Trace>(generateTrace(w, 4)));
    gpu::GpuParams gp; // 30 SMs
    EXPECT_DEATH(
        {
            gpu::GpuSimulator sim(
                gp, schemes::makeMeeParams(schemes::Scheme::Shm), scn);
        },
        "recorded for 4 SMs");
}

TEST_F(TraceFileTest, ReplayRetiresWhatTheLiveRunRetires)
{
    // Each kernel replays at its recorded load window, so under a
    // common cycle cap a replay retires what the live run retires. The
    // remaining gap is the round-robin SM interleaving frozen at record
    // time.
    gpu::GpuParams gp;
    gp.maxCyclesPerKernel = 20000;
    for (const WorkloadSpec &w : allWorkloads()) {
        const gpu::RunMetrics live =
            core::measure(gp, schemes::Scheme::Baseline,
                          singleTenantScenario(w))
                .total;
        const gpu::RunMetrics replay =
            core::measure(gp, schemes::Scheme::Baseline,
                          singleTenantScenario(std::make_shared<const Trace>(
                              generateTrace(w, gp.numSms))))
                .total;
        const double live_instr = static_cast<double>(live.instructions);
        EXPECT_NEAR(static_cast<double>(replay.instructions), live_instr,
                    0.03 * live_instr)
            << w.name;
    }
}

TEST_F(TraceFileTest, UpperBoundReplayIsPrimedFromTheTrace)
{
    // SHM_upper_bound replays primed from a Baseline pass over the same
    // trace, so the oracle never trails the learning detectors.
    gpu::GpuParams gp;
    gp.maxCyclesPerKernel = 20000;
    const auto scn = singleTenantScenario(std::make_shared<const Trace>(
        generateTrace(findWorkload("bfs"), gp.numSms)));
    const double shm =
        core::measure(gp, schemes::Scheme::Shm, scn).total.ipc;
    const double upper =
        core::measure(gp, schemes::Scheme::ShmUpperBound, scn).total.ipc;
    EXPECT_GE(upper, shm);
}

TEST_F(TraceFileTest, CorruptFileIsFatal)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE", f);
    std::fclose(f);
    EXPECT_DEATH(readTrace(path), "not a shmgpu trace");
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_DEATH(readTrace("/nonexistent/foo.trace"), "cannot open");
}

namespace
{

/** A structurally valid random trace (op fields within range). */
Trace
randomTrace(Rng &rng)
{
    Trace trace;
    trace.numSms = 1 + static_cast<std::uint32_t>(rng.below(8));
    std::size_t kernels = 1 + rng.below(4);
    for (std::size_t k = 0; k < kernels; ++k) {
        TraceKernel kernel;
        std::size_t copies = rng.below(4);
        for (std::size_t c = 0; c < copies; ++c)
            kernel.copies.push_back({rng.below(1 << 20) * 128,
                                     (1 + rng.below(64)) * 128,
                                     rng.chance(0.5)});
        kernel.window = static_cast<std::uint32_t>(rng.below(16));
        std::size_t records = rng.below(200);
        for (std::size_t r = 0; r < records; ++r) {
            TraceRecord rec;
            rec.op.addr = rng.below(1 << 24) * 32;
            rec.op.bytes = 32u << rng.below(3);
            rec.op.computeInstrs =
                static_cast<std::uint8_t>(rng.below(8));
            rec.op.type = rng.chance(0.3) ? mem::AccessType::Write
                                          : mem::AccessType::Read;
            rec.op.space = static_cast<MemSpace>(rng.below(5));
            rec.sm = static_cast<SmId>(rng.below(trace.numSms));
            kernel.records.push_back(rec);
        }
        trace.kernels.push_back(std::move(kernel));
    }
    return trace;
}

bool
tracesEqual(const Trace &a, const Trace &b)
{
    if (a.numSms != b.numSms || a.kernels.size() != b.kernels.size())
        return false;
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        const auto &ka = a.kernels[k];
        const auto &kb = b.kernels[k];
        if (ka.copies.size() != kb.copies.size() ||
            ka.window != kb.window ||
            ka.records.size() != kb.records.size())
            return false;
        for (std::size_t c = 0; c < ka.copies.size(); ++c)
            if (ka.copies[c].base != kb.copies[c].base ||
                ka.copies[c].bytes != kb.copies[c].bytes ||
                ka.copies[c].declaredReadOnly !=
                    kb.copies[c].declaredReadOnly)
                return false;
        for (std::size_t r = 0; r < ka.records.size(); ++r) {
            const auto &ra = ka.records[r];
            const auto &rb = kb.records[r];
            if (ra.sm != rb.sm || ra.op.addr != rb.op.addr ||
                ra.op.type != rb.op.type ||
                ra.op.space != rb.op.space ||
                ra.op.computeInstrs != rb.op.computeInstrs ||
                ra.op.bytes != rb.op.bytes)
                return false;
        }
    }
    return true;
}

std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST_F(TraceFileTest, RandomizedWriteReadWriteRoundTrip)
{
    // write -> read -> write must be a fixed point: the reread trace
    // equals the original and the two files are byte-identical.
    std::string path2 = path + ".2";
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        Rng rng(seed);
        Trace original = randomTrace(rng);
        writeTrace(original, path);

        Trace loaded;
        std::string error;
        ASSERT_TRUE(tryReadTrace(path, loaded, error)) << error;
        EXPECT_TRUE(tracesEqual(original, loaded)) << "seed " << seed;

        writeTrace(loaded, path2);
        EXPECT_EQ(fileBytes(path), fileBytes(path2)) << "seed " << seed;
    }
    std::remove(path2.c_str());
}

TEST_F(TraceFileTest, TryReadReportsMissingFile)
{
    Trace out;
    std::string error;
    EXPECT_FALSE(tryReadTrace("/nonexistent/foo.trace", out, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(TraceFileTest, TruncationAtEveryPrefixFailsGracefully)
{
    Rng rng(7);
    Trace original = randomTrace(rng);
    writeTrace(original, path);
    std::vector<char> intact = fileBytes(path);
    ASSERT_GT(intact.size(), 32u);

    // Every strict prefix must yield an error, never a crash. (Step
    // through offsets to keep the loop fast on big traces.)
    for (std::size_t len = 0; len < intact.size();
         len += 1 + len / 7) {
        std::vector<char> cut(intact.begin(),
                              intact.begin() +
                                  static_cast<std::ptrdiff_t>(len));
        writeFileBytes(path, cut);
        Trace out;
        std::string error;
        EXPECT_FALSE(tryReadTrace(path, out, error)) << "len " << len;
        EXPECT_FALSE(error.empty()) << "len " << len;
    }
}

TEST_F(TraceFileTest, CorruptCountFieldsFailWithoutHugeAllocation)
{
    Rng rng(11);
    Trace original = randomTrace(rng);
    writeTrace(original, path);
    std::vector<char> intact = fileBytes(path);

    // The op count of kernel 0 sits after the header, its copies and
    // its load window.
    std::size_t count_off = 4 + 4 + 4 + 4 + 4 +
                            original.kernels[0].copies.size() * 17 + 4;
    ASSERT_LT(count_off + 8, intact.size());
    std::vector<char> evil = intact;
    for (int i = 0; i < 8; ++i)
        evil[count_off + i] = static_cast<char>(0xff);
    writeFileBytes(path, evil);

    Trace out;
    std::string error;
    // A naive reader would reserve() 2^64 records here; the bounded
    // reader must fail fast with a corruption message instead.
    EXPECT_FALSE(tryReadTrace(path, out, error));
    EXPECT_NE(error.find("exceeds the file size"), std::string::npos);
}

TEST_F(TraceFileTest, RandomByteFlipsNeverCrashTheReader)
{
    Rng rng(23);
    Trace original = randomTrace(rng);
    writeTrace(original, path);
    std::vector<char> intact = fileBytes(path);

    for (int trial = 0; trial < 200; ++trial) {
        std::vector<char> fuzzed = intact;
        // Flip 1-4 random bytes anywhere in the file.
        int flips = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < flips; ++i)
            fuzzed[rng.below(fuzzed.size())] ^=
                static_cast<char>(1 + rng.below(255));
        writeFileBytes(path, fuzzed);
        Trace out;
        std::string error;
        // Either a clean parse (the flip hit a don't-care byte or was
        // masked) or a clean error; both must leave the process alive.
        if (!tryReadTrace(path, out, error)) {
            EXPECT_FALSE(error.empty()) << "trial " << trial;
        }
    }
}

TEST_F(TraceFileTest, OutOfRangeSmAndSpaceAreRejected)
{
    Trace trace;
    trace.numSms = 2;
    TraceKernel kernel;
    TraceRecord rec;
    rec.op.addr = 128;
    rec.op.bytes = 32;
    rec.sm = 1;
    kernel.records.push_back(rec);
    trace.kernels.push_back(kernel);
    writeTrace(trace, path);
    std::vector<char> intact = fileBytes(path);

    // Record layout after the 16 B header, the copy count, the load
    // window and the 8 B op count:
    // u64 addr, u8 sm, u8 compute, u8 type, u8 space, u32 bytes.
    std::size_t rec_off = 4 + 4 + 4 + 4 + 4 + 4 + 8;
    {
        std::vector<char> evil = intact;
        evil[rec_off + 8] = 9; // SM 9 of 2
        writeFileBytes(path, evil);
        Trace out;
        std::string error;
        EXPECT_FALSE(tryReadTrace(path, out, error));
        EXPECT_NE(error.find("names SM 9"), std::string::npos);
    }
    {
        std::vector<char> evil = intact;
        evil[rec_off + 11] = 7; // memory space 7 (max is 4)
        writeFileBytes(path, evil);
        Trace out;
        std::string error;
        EXPECT_FALSE(tryReadTrace(path, out, error));
        EXPECT_NE(error.find("invalid memory space"),
                  std::string::npos);
    }
}

TEST_F(TraceFileTest, TrailingGarbageIsRejected)
{
    Rng rng(3);
    Trace original = randomTrace(rng);
    writeTrace(original, path);
    std::vector<char> bytes = fileBytes(path);
    bytes.push_back('x');
    writeFileBytes(path, bytes);

    Trace out;
    std::string error;
    EXPECT_FALSE(tryReadTrace(path, out, error));
    EXPECT_NE(error.find("trailing garbage"), std::string::npos);
}

TEST_F(TraceFileTest, VersionOneFileIsRejected)
{
    // Version 1 carried no load windows; replaying one would run every
    // kernel at the GPU's full window, so it is refused.
    Rng rng(5);
    writeTrace(randomTrace(rng), path);
    std::vector<char> bytes = fileBytes(path);
    bytes[4] = 1; // the u32 version follows the 4 B magic
    writeFileBytes(path, bytes);

    Trace out;
    std::string error;
    EXPECT_FALSE(tryReadTrace(path, out, error));
    EXPECT_NE(error.find("unsupported version 1 (expected 2)"),
              std::string::npos)
        << error;
}
