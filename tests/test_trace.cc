/**
 * @file
 * Structured event tracer tests: class filtering, deterministic export
 * ordering, and the Chrome trace_event JSON schema.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/trace.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"

using namespace shmgpu;
using namespace shmgpu::trace;

TEST(TraceClassMask, ParsesNamesAndAll)
{
    EXPECT_EQ(parseClassMask("all"), allClassesMask);
    EXPECT_EQ(parseClassMask("sm"), classBit(EventClass::Sm));
    EXPECT_EQ(parseClassMask("sm,l2"),
              classBit(EventClass::Sm) | classBit(EventClass::L2));
    EXPECT_EQ(parseClassMask(" txn , detect "),
              classBit(EventClass::Txn) | classBit(EventClass::Detect));
    EXPECT_EQ(parseClassMask("mee,mee"), classBit(EventClass::Mee));
}

TEST(TraceClassMask, RejectsUnknownAndEmpty)
{
    EXPECT_DEATH(parseClassMask("bogus"), "unknown trace event class");
    EXPECT_DEATH(parseClassMask(""), "selects no event classes");
    EXPECT_DEATH(parseClassMask(","), "selects no event classes");
}

TEST(TraceClassMask, EveryKindHasAClassAndName)
{
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::NumKinds);
         ++k) {
        EventKind kind = static_cast<EventKind>(k);
        EXPECT_NE(kindName(kind), nullptr);
        EXPECT_LT(static_cast<unsigned>(classOf(kind)),
                  static_cast<unsigned>(EventClass::NumClasses));
        EXPECT_NE(className(classOf(kind)), nullptr);
    }
}

TEST(Tracer, ClassFilterSkipsRecording)
{
    TraceParams params;
    params.classMask = classBit(EventClass::Sm);
    Tracer tracer(1, params);
    tracer.record(0, EventKind::L2Hit, 10, 0, 0x100);
    tracer.record(0, EventKind::CtrFetch, 11, 0, 0x200);
    tracer.record(0, EventKind::SmIssue, 12, 0, 0x300);
    EXPECT_EQ(tracer.totalRecorded(), 1u);
    auto events = tracer.collectSorted();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, EventKind::SmIssue);
}

TEST(Tracer, LaneKeepsEveryEvent)
{
    TraceParams params;
    Tracer tracer(1, params);
    const std::uint64_t emitted = 1000;
    for (std::uint64_t i = 0; i < emitted; ++i)
        tracer.record(0, EventKind::SmIssue, i, 0, i);
    EXPECT_EQ(tracer.totalRecorded(), emitted);
}

TEST(Tracer, ExportSortsByCycleWithLaneMajorTies)
{
    TraceParams params;
    Tracer tracer(2, params);
    // Interleave cycles across lanes, with a tie at cycle 5.
    tracer.record(0, EventKind::SmIssue, 5, 0, 1);
    tracer.record(0, EventKind::SmIssue, 9, 0, 2);
    tracer.record(1, EventKind::TxnDequeue, 5, 1, 3);
    tracer.record(1, EventKind::TxnDequeue, 2, 1, 4);
    auto events = tracer.collectSorted();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].payload, 4u); // cycle 2
    EXPECT_EQ(events[1].payload, 1u); // cycle-5 tie: lane 0 first
    EXPECT_EQ(events[2].payload, 3u);
    EXPECT_EQ(events[3].payload, 2u); // cycle 9
}

TEST(Tracer, ChromeJsonIsValidAndCarriesSchema)
{
    TraceParams params;
    Tracer tracer(2, params);
    tracer.setLaneName(0, "partition 0");
    tracer.setLaneName(1, "sm scheduler");
    tracer.record(1, EventKind::KernelBegin, 0, 0, 0);
    tracer.record(0, EventKind::L2Miss, 17, 0, 0xdeadbeefull);
    tracer.record(1, EventKind::KernelEnd, 42, 0, 0);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    json::Value doc = json::Value::parse(os.str());

    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.contains("traceEvents"));
    const json::Value &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 1 process_name + 2 thread_name metadata records + 3 instants.
    ASSERT_EQ(events.size(), 6u);

    std::size_t meta = 0, instants = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        const std::string &ph = e.at("ph").asString();
        if (ph == "M") {
            ++meta;
            continue;
        }
        ASSERT_EQ(ph, "i");
        ++instants;
        EXPECT_EQ(e.at("s").asString(), "t");
        EXPECT_EQ(e.at("pid").asNumber(), 1.0);
        EXPECT_TRUE(e.contains("name"));
        EXPECT_TRUE(e.contains("cat"));
        EXPECT_TRUE(e.contains("ts"));
        EXPECT_TRUE(e.at("args").contains("payload"));
        EXPECT_TRUE(e.at("args").contains("component"));
    }
    EXPECT_EQ(meta, 3u);
    EXPECT_EQ(instants, 3u);

    const json::Value &other = doc.at("otherData");
    EXPECT_EQ(other.at("time_unit").asString(), "cycles");

    // Payloads export as hex strings: u64 values would lose precision
    // as JSON doubles.
    bool found_payload = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &e = events.at(i);
        if (e.at("ph").asString() == "i" &&
            e.at("name").asString() == "L2Miss") {
            EXPECT_EQ(e.at("args").at("payload").asString(),
                      "0xdeadbeef");
            found_payload = true;
        }
    }
    EXPECT_TRUE(found_payload);
}

TEST(Tracer, TextDumpIsDeterministic)
{
    auto dump = [] {
        TraceParams params;
        Tracer tracer(2, params);
        tracer.record(0, EventKind::L2Hit, 3, 0, 0x40);
        tracer.record(1, EventKind::SmIssue, 3, 2, 0x80);
        tracer.record(0, EventKind::CtrFetch, 7, 0, 0xc0);
        std::ostringstream os;
        tracer.writeText(os);
        return os.str();
    };
    std::string a = dump(), b = dump();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("cycle=3 class=l2 kind=L2Hit"), std::string::npos);
    EXPECT_NE(a.find("# events=3\n"), std::string::npos);
}

namespace
{

/**
 * Run one simulation with a tracer attached and return the text dump,
 * the deterministic A/B format.
 */
std::string
tracedRun(const workload::WorkloadSpec &w)
{
    gpu::GpuParams gp = gpu::testConfig();
    TraceParams params;
    Tracer tracer(gp.numPartitions + 1, params);
    gpu::GpuSimulator sim(gp,
                          schemes::makeMeeParams(schemes::Scheme::Shm),
                          workload::singleTenantScenario(w));
    sim.attachTracer(&tracer);
    sim.run();
    std::ostringstream os;
    tracer.writeText(os);
    return os.str();
}

} // namespace

TEST(TracerSimulation, RepeatRunsAreBitIdentical)
{
    workload::WorkloadSpec w = workload::makeStreamingMicro(1 << 18, 256);
    std::string a = tracedRun(w);
    std::string b = tracedRun(w);
    EXPECT_EQ(a, b);
}

TEST(TracerSimulation, EmitsEveryArchitecturalClass)
{
    workload::WorkloadSpec w = workload::makeMixedMicro();
    std::string dump = tracedRun(w);
    EXPECT_NE(dump.find("class=sm"), std::string::npos);
    EXPECT_NE(dump.find("class=txn"), std::string::npos);
    EXPECT_NE(dump.find("class=l2"), std::string::npos);
    EXPECT_NE(dump.find("class=mee"), std::string::npos);
    EXPECT_NE(dump.find("class=detect"), std::string::npos);
    EXPECT_NE(dump.find("kind=KernelBegin"), std::string::npos);
    EXPECT_NE(dump.find("kind=KernelEnd"), std::string::npos);
}

TEST(TracerSimulation, DetachedTracerChangesNothing)
{
    workload::WorkloadSpec w = workload::makeMixedMicro();
    gpu::GpuParams gp = gpu::testConfig();
    auto run = [&](bool traced) {
        gpu::GpuSimulator sim(
            gp, schemes::makeMeeParams(schemes::Scheme::Pssm),
            workload::singleTenantScenario(w));
        TraceParams params;
        Tracer tracer(gp.numPartitions + 1, params);
        if (traced)
            sim.attachTracer(&tracer);
        return sim.run().total;
    };
    gpu::RunMetrics off = run(false);
    gpu::RunMetrics on = run(true);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.instructions, on.instructions);
    EXPECT_EQ(off.metadataBytes(), on.metadataBytes());
}
