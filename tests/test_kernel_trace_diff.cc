/**
 * @file
 * KernelTrace against the per-op reference generator
 * (tests/reference_kernel_trace.hh): the constructor-hoisted stream
 * constants and the incrementally advanced Streaming/Strided tickets
 * must produce the reference's ops exactly — address, type, space,
 * bytes and compute count — and drain every SM at the same op, under
 * a randomized SM call order (the tickets are global, so the order in
 * which SMs draw decides the addresses).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "reference_kernel_trace.hh"
#include "workload/benchmarks.hh"
#include "workload/trace.hh"

using namespace shmgpu;
using namespace shmgpu::workload;

namespace
{

/**
 * Draw ops from both generators for kernel @p kernel_idx of @p spec on
 * @p num_sms SMs, one random live SM at a time, until every SM drains
 * or @p max_ops ops were compared. Returns the ops compared.
 */
std::uint64_t
compareKernel(const WorkloadSpec &spec, std::uint32_t kernel_idx,
              std::uint32_t num_sms, std::uint64_t max_ops,
              std::uint64_t order_seed)
{
    const std::vector<Addr> bases = layoutBuffers(spec);
    KernelTrace fast(spec, bases, kernel_idx, num_sms);
    test::ReferenceKernelTrace ref(spec, bases, kernel_idx, num_sms);
    Rng order(order_seed);

    std::vector<SmId> live;
    for (SmId sm = 0; sm < num_sms; ++sm)
        live.push_back(sm);

    std::uint64_t ops = 0;
    while (!live.empty() && ops < max_ops) {
        const std::size_t pick = order.below(live.size());
        const SmId sm = live[pick];
        TraceOp got, want;
        const bool got_op = fast.next(sm, got);
        const bool want_op = ref.next(sm, want);
        const std::string where = spec.name + " kernel " +
                                  std::to_string(kernel_idx) + " SM " +
                                  std::to_string(sm) + " op " +
                                  std::to_string(ops);
        EXPECT_EQ(got_op, want_op) << where;
        if (got_op != want_op)
            return ops;
        if (!got_op) {
            live[pick] = live.back();
            live.pop_back();
            continue;
        }
        EXPECT_EQ(got.addr, want.addr) << where;
        EXPECT_EQ(got.type, want.type) << where;
        EXPECT_EQ(got.space, want.space) << where;
        EXPECT_EQ(got.bytes, want.bytes) << where;
        EXPECT_EQ(got.computeInstrs, want.computeInstrs) << where;
        if (got.addr != want.addr)
            return ops;
        ++ops;
    }
    EXPECT_EQ(fast.done(), live.empty());
    return ops;
}

StreamSpec
stream(std::uint32_t buffer, Pattern pattern, bool write = false)
{
    StreamSpec s;
    s.buffer = buffer;
    s.pattern = pattern;
    s.write = write;
    return s;
}

/**
 * Every pattern over buffers whose sector counts are odd, one sector,
 * and a power of two, with Strided strides of 0, 1, one that does not
 * divide the sector count and ones above it, thinned streams, three
 * kernels of different shapes and an empty one.
 */
WorkloadSpec
edgeCaseSpec()
{
    WorkloadSpec w;
    w.name = "edges";
    w.seed = 0x5EED;
    w.buffers = {{"odd", 100 * 32, MemSpace::Global},
                 {"one", 32, MemSpace::Texture},
                 {"pow2", 256 * 32, MemSpace::Constant},
                 {"ragged", 77 * 32 + 5, MemSpace::Global}};

    KernelSpec a;
    a.name = "strided";
    a.iterationsPerSm = 300;
    a.computePerMem = 3;
    for (std::uint64_t stride : {0ull, 1ull, 7ull, 100ull, 101ull, 250ull}) {
        for (std::uint32_t buf : {0u, 1u, 2u, 3u}) {
            StreamSpec s = stream(buf, Pattern::Strided, stride % 2 == 1);
            s.strideSectors = stride;
            a.streams.push_back(s);
        }
    }

    KernelSpec b;
    b.name = "mixed";
    b.iterationsPerSm = 500;
    b.computePerMem = 0;
    for (std::uint32_t buf : {0u, 1u, 2u, 3u}) {
        b.streams.push_back(stream(buf, Pattern::Streaming));
        b.streams.push_back(stream(buf, Pattern::Random, true));
        StreamSpec hot = stream(buf, Pattern::RandomHot);
        hot.hotFraction = buf == 1 ? 0.5 : 0.05;
        hot.prob = 0.4;
        b.streams.push_back(hot);
        StreamSpec zipf = stream(buf, Pattern::Zipf);
        zipf.zipfAlpha = buf == 2 ? 1.0 : 0.8 + 0.3 * buf;
        zipf.prob = 0.7;
        b.streams.push_back(zipf);
    }

    KernelSpec c;
    c.name = "thinned";
    c.iterationsPerSm = 1000;
    c.computePerMem = 9;
    StreamSpec s0 = stream(0, Pattern::Streaming, true);
    s0.prob = 0.25;
    StreamSpec s1 = stream(3, Pattern::Strided);
    s1.strideSectors = 13;
    s1.prob = 0.5;
    StreamSpec s2 = stream(1, Pattern::Streaming);
    s2.prob = 0.1;
    c.streams = {s0, s1, s2};

    KernelSpec d;
    d.name = "empty";
    d.iterationsPerSm = 0;
    d.streams = {stream(0, Pattern::Streaming)};

    w.kernels = {a, b, c, d};
    return w;
}

} // namespace

TEST(KernelTraceDiff, EdgeCasesMatchTheReferenceToTheDrain)
{
    const WorkloadSpec w = edgeCaseSpec();
    for (std::uint32_t k = 0; k < w.kernels.size(); ++k) {
        for (std::uint32_t sms : {1u, 3u, 30u}) {
            const std::uint64_t ops =
                compareKernel(w, k, sms, ~0ull, 0xD1FF + k * 7 + sms);
            if (w.kernels[k].iterationsPerSm > 0) {
                EXPECT_GT(ops, 0u) << w.kernels[k].name;
            }
        }
    }
}

TEST(KernelTraceDiff, TableSevenKernelsMatchTheReference)
{
    // Every kernel of every Table VII workload on the paper's 30 SMs,
    // a prefix of each under a random SM order.
    for (const WorkloadSpec &w : allWorkloads())
        for (std::uint32_t k = 0; k < w.kernels.size(); ++k)
            EXPECT_GT(compareKernel(w, k, 30, 100000, 0xAB + k), 0u)
                << w.name;
}

TEST(KernelTraceDiff, MicroWorkloadsMatchTheReferenceToTheDrain)
{
    const WorkloadSpec micros[] = {
        makeStreamingMicro(1 << 16), makeRandomMicro(1 << 16),
        makeMixedMicro(),            makeMultiKernelMicro(),
        makeZipfSpec(64 << 10, 1.0), makeZipfSpec(96 << 10, 0.6)};
    for (const WorkloadSpec &w : micros)
        for (std::uint32_t k = 0; k < w.kernels.size(); ++k)
            compareKernel(w, k, 7, ~0ull, 0x77 + k);
}
