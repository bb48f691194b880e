/**
 * @file
 * google-benchmark microbenchmarks of the crypto substrate: AES-128,
 * SipHash MACs, CTR-mode block transforms, BMT path updates and the
 * functional MEE's read burst and single-block write. These
 * bound the functional-mode throughput (the timing model charges
 * fixed engine latencies instead).
 *
 * The *Batch benchmarks sweep batch size (1/4/8 blocks, or a 32-block
 * read burst) on the AES or block-MAC kernel this CPU dispatches to,
 * named in each row's label; BM_Aes128Block, BM_CtrModeCacheLine and
 * BM_SipHashBlockMac time the scalar reference cipher, the dispatched
 * single-line pad and one scalar block MAC beside them.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/aes128.hh"
#include "crypto/aes128_batch.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/dispatch.hh"
#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "mee/functional.hh"
#include "meta/bmt.hh"

using namespace shmgpu;
using namespace shmgpu::crypto;

static void
BM_Aes128Block(benchmark::State &state)
{
    Aes128 aes(generateKeys(1).encryptionKey);
    Block16 block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

static void
BM_CtrModeCacheLine(benchmark::State &state)
{
    CtrModeEngine engine(generateKeys(2).encryptionKey);
    DataBlock data{};
    std::uint64_t minor = 0;
    for (auto _ : state) {
        engine.transform(data, {0x1000, 1, minor++, 0});
        benchmark::DoNotOptimize(data);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_CtrModeCacheLine);

static void
BM_AesBatchEncrypt(benchmark::State &state)
{
    std::size_t lanes = static_cast<std::size_t>(state.range(0));
    Aes128Batch aes(generateKeys(7).encryptionKey);
    std::vector<Block16> blocks(lanes);
    for (auto _ : state) {
        aes.encryptBlocks(blocks.data(), blocks.data(), lanes);
        benchmark::DoNotOptimize(blocks.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(lanes) * 16);
    state.SetLabel(backendName(activeBackend()));
}
BENCHMARK(BM_AesBatchEncrypt)->Arg(1)->Arg(4)->Arg(8);

static void
BM_CtrPadBatch(benchmark::State &state)
{
    std::size_t lines = static_cast<std::size_t>(state.range(0));
    CtrModeEngine engine(generateKeys(8).encryptionKey);
    std::vector<Seed> seeds(lines);
    std::vector<DataBlock> pads(lines);
    std::uint64_t minor = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < lines; ++i)
            seeds[i] = {0x1000 + i * 128, 1, minor++, 0};
        engine.generatePads(seeds.data(), pads.data(), lines);
        benchmark::DoNotOptimize(pads.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(lines) * 128);
    state.SetLabel(backendName(activeBackend()));
}
BENCHMARK(BM_CtrPadBatch)->Arg(1)->Arg(4)->Arg(8);

static void
BM_SipHashBlockMac(benchmark::State &state)
{
    MacEngine engine(generateKeys(3).macKey);
    DataBlock data{};
    std::uint64_t minor = 0;
    for (auto _ : state) {
        Mac mac = engine.blockMac(data, 0x2000, 1, minor++, 0);
        benchmark::DoNotOptimize(mac);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_SipHashBlockMac);

static void
BM_BlockMacBatch(benchmark::State &state)
{
    // A read burst's block MACs through the dispatched kernel (the
    // AVX2 4-lane SipHash where the CPU has it), named in the label.
    const auto n = static_cast<std::size_t>(state.range(0));
    MacEngine engine(generateKeys(9).macKey);
    std::vector<DataBlock> data(n);
    std::vector<BlockMacInput> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i].fill(static_cast<std::uint8_t>(i));
        jobs[i] = {&data[i], 0x2000 + i * 128, 1, i, 0};
    }
    std::vector<Mac> tags(n);
    for (auto _ : state) {
        engine.blockMacBatch(jobs, tags.data());
        benchmark::DoNotOptimize(tags.data());
        benchmark::ClobberMemory();
        ++jobs[0].minor;
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n) * 128);
    state.SetLabel(macKernelName(activeMacKernel()));
}
BENCHMARK(BM_BlockMacBatch)->Arg(32);

static void
BM_CtrTransformBatch(benchmark::State &state)
{
    // A burst's in-place CTR transform: seeds packed with word stores,
    // pads generated and XORed in on-stack groups, on the dispatched
    // AES kernel named in the label.
    const auto n = static_cast<std::size_t>(state.range(0));
    CtrModeEngine engine(generateKeys(10).encryptionKey);
    std::vector<Seed> seeds(n);
    std::vector<DataBlock> data(n);
    std::uint64_t minor = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            seeds[i] = {0x1000 + i * 128, 1, minor++, 0};
        engine.transformBatch(data.data(), seeds.data(), n);
        benchmark::DoNotOptimize(data.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n) * 128);
    state.SetLabel(backendName(activeBackend()));
}
BENCHMARK(BM_CtrTransformBatch)->Arg(32);

static void
BM_MeeReadBurst(benchmark::State &state)
{
    // Functional-MEE end to end: verified+decrypted 32-block bursts
    // through deviceReadBatch on the dispatched AES kernel.
    meta::LayoutParams lp;
    lp.dataBytes = 1 << 20;
    mee::SecureMemoryContext ctx(lp, 42);

    constexpr std::size_t burst = 32;
    std::vector<LocalAddr> addrs(burst);
    DataBlock plain{};
    for (std::size_t i = 0; i < burst; ++i) {
        addrs[i] = 0x8000 + i * 128;
        ctx.deviceWrite(addrs[i], plain);
    }
    std::vector<mee::FunctionalReadResult> res(burst);
    for (auto _ : state) {
        ctx.deviceReadBatch(addrs.data(), res.data(), burst);
        benchmark::DoNotOptimize(res.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            burst * 128);
    state.SetLabel(backendName(activeBackend()));
}
BENCHMARK(BM_MeeReadBurst);

static void
BM_MeeDeviceWrite(benchmark::State &state)
{
    // Functional-MEE single-block kernel store: counter increment, BMT
    // path update, CTR encrypt, block MAC and the chunk-MAC refresh
    // over the chunk's 32 block MACs. Stores walk the whole 1 MiB
    // context, every block written once beforehand, so each one finds
    // its chunk's MACs stored and its minor counter far from overflow.
    meta::LayoutParams lp;
    lp.dataBytes = 1 << 20;
    mee::SecureMemoryContext ctx(lp, 42);
    const std::uint64_t blocks = lp.dataBytes / 128;
    DataBlock plain{};
    for (std::uint64_t b = 0; b < blocks; ++b)
        ctx.deviceWrite(b * 128, plain);
    std::uint64_t i = 0;
    for (auto _ : state) {
        plain[0] = static_cast<std::uint8_t>(i);
        ctx.deviceWrite(i % blocks * 128, plain);
        benchmark::ClobberMemory();
        ++i;
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_MeeDeviceWrite);

static void
BM_ChunkMac(benchmark::State &state)
{
    MacEngine engine(generateKeys(4).macKey);
    std::vector<Mac> macs(32, 0x1234);
    for (auto _ : state) {
        Mac mac = engine.chunkMac(macs, 0x4000, 0);
        benchmark::DoNotOptimize(mac);
    }
}
BENCHMARK(BM_ChunkMac);

static void
BM_BmtUpdatePath(benchmark::State &state)
{
    meta::LayoutParams lp;
    lp.dataBytes = 64 << 20;
    meta::MetadataLayout layout(lp);
    meta::CounterStore counters(layout);
    meta::BonsaiTree tree(layout, counters, generateKeys(5).treeKey);
    std::uint64_t leaf = 0;
    for (auto _ : state) {
        counters.increment(leaf * 8192 % (64 << 20));
        tree.updatePath(leaf % layout.numCounterBlocks());
        ++leaf;
    }
}
BENCHMARK(BM_BmtUpdatePath);

static void
BM_BmtVerifyPath(benchmark::State &state)
{
    meta::LayoutParams lp;
    lp.dataBytes = 64 << 20;
    meta::MetadataLayout layout(lp);
    meta::CounterStore counters(layout);
    meta::BonsaiTree tree(layout, counters, generateKeys(6).treeKey);
    counters.increment(0);
    tree.updatePath(0);
    for (auto _ : state) {
        auto v = tree.verifyPath(0);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_BmtVerifyPath);

int
main(int argc, char **argv)
{
    // Stamp what the numbers depend on into the JSON context: the
    // code's own build type (the context's "library_build_type"
    // describes the google-benchmark library) and the dispatched
    // kernels.
    benchmark::AddCustomContext("shmgpu_build_type", SHMGPU_BUILD_TYPE);
    benchmark::AddCustomContext("aes_kernel", backendName(activeBackend()));
    benchmark::AddCustomContext("mac_kernel",
                                macKernelName(activeMacKernel()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
