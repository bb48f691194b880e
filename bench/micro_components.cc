/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrate: the
 * sectored cache, the DRAM channel, the detectors, and a full
 * simulated cycle — the knobs that set wall-clock cost per simulated
 * access.
 */

#include <benchmark/benchmark.h>

#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "gpu/simulator.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"

using namespace shmgpu;

static void
BM_CacheAccessHit(benchmark::State &state)
{
    mem::CacheParams p;
    p.sizeBytes = 128 * 1024;
    p.assoc = 16;
    mem::SectoredCache cache(p);
    cache.insert(0, 0xF, 0);
    for (auto _ : state) {
        auto r = cache.access(0, 32, false);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CacheAccessHit);

static void
BM_CacheMissFill(benchmark::State &state)
{
    mem::CacheParams p;
    p.sizeBytes = 128 * 1024;
    p.assoc = 16;
    mem::SectoredCache cache(p);
    Addr addr = 0;
    for (auto _ : state) {
        // A cold block every time: the miss installs it, evicting
        // once the cache has filled.
        auto r = cache.access(addr, 32, false);
        benchmark::DoNotOptimize(r);
        addr += 128;
    }
}
BENCHMARK(BM_CacheMissFill);

static void
BM_DramEnqueue(benchmark::State &state)
{
    mem::DramChannel ch(mem::DramParams{});
    Addr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        auto r = ch.enqueue(now++, addr += 32, 32,
                            mem::AccessType::Read,
                            mem::TrafficClass::Data);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_DramEnqueue);

static void
BM_StreamingDetectorAccess(benchmark::State &state)
{
    detect::StreamingDetector det(detect::StreamingDetectorParams{});
    std::vector<detect::DetectionEvent> events;
    LocalAddr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        det.access(addr += 32, false, now += 2, events);
        events.clear();
    }
}
BENCHMARK(BM_StreamingDetectorAccess);

static void
BM_ReadOnlyDetectorLookup(benchmark::State &state)
{
    detect::ReadOnlyDetector det(detect::ReadOnlyDetectorParams{});
    det.markInputRegion(0, 1 << 20);
    LocalAddr addr = 0;
    for (auto _ : state) {
        bool ro = det.isReadOnly(addr += 128);
        benchmark::DoNotOptimize(ro);
    }
}
BENCHMARK(BM_ReadOnlyDetectorLookup);

static void
BM_FullSimulation(benchmark::State &state)
{
    // Wall-clock per complete micro-workload simulation under SHM.
    auto w = workload::makeMixedMicro();
    gpu::GpuParams gp;
    gp.maxCyclesPerKernel = 20000;
    for (auto _ : state) {
        gpu::GpuSimulator sim(gp,
                              schemes::makeMeeParams(schemes::Scheme::Shm),
                              workload::singleTenantScenario(w));
        auto m = sim.run();
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_FullSimulation)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
