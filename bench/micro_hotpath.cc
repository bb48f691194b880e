/**
 * @file
 * google-benchmark microbenchmarks of the hot-path containers and
 * index math introduced by the performance rework: FlatMap vs.
 * std::unordered_map on an insert/find/erase churn pattern (the
 * streaming detector's chunk-to-tracker slots), DaryHeap vs.
 * std::priority_queue on the completion-retirement pattern, the
 * timing-wheel CalendarQueue vs. DaryHeap on the kernel engine's SM
 * ready-event pattern, the division-free address mapping, the
 * unlimited-MAT oracle detector at growing tracker pools, and the
 * profiling pass's per-chunk oracle on the same stream. These
 * isolate the per-structure wins (and costs) that perfbench's
 * paper-grid workload measures end to end.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/calendar_queue.hh"
#include "common/dary_heap.hh"
#include "common/flat_map.hh"
#include "detect/oracle.hh"
#include "detect/streaming.hh"
#include "mem/addr_map.hh"
#include "mem/cache.hh"

using namespace shmgpu;

namespace
{

/** A slot's lifecycle: insert, a few finds, erase. */
struct ChurnEntry
{
    std::uint32_t slot = 0;
    std::uint32_t touches = 0;
};

constexpr std::size_t liveEntries = 256; // a tracker pool's worth

} // namespace

static void
BM_FlatMapChurn(benchmark::State &state)
{
    FlatMap<ChurnEntry> table;
    table.reserve(liveEntries);
    std::uint64_t key = 0;
    for (auto _ : state) {
        table.emplace(key, ChurnEntry{0xF, 1});
        for (int probe = 0; probe < 4; ++probe)
            benchmark::DoNotOptimize(table.find(key));
        table.erase(key);
        key += 128;
    }
}
BENCHMARK(BM_FlatMapChurn);

static void
BM_UnorderedMapChurn(benchmark::State &state)
{
    std::unordered_map<std::uint64_t, ChurnEntry> table;
    table.reserve(liveEntries);
    std::uint64_t key = 0;
    for (auto _ : state) {
        table.emplace(key, ChurnEntry{0xF, 1});
        for (int probe = 0; probe < 4; ++probe)
            benchmark::DoNotOptimize(table.find(key));
        table.erase(key);
        key += 128;
    }
}
BENCHMARK(BM_UnorderedMapChurn);

static void
BM_FlatMapHitLookup(benchmark::State &state)
{
    FlatMap<std::uint32_t> table;
    for (std::uint64_t k = 0; k < liveEntries; ++k)
        table.emplace(k * 128, static_cast<std::uint32_t>(k));
    std::uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(key % (liveEntries * 128)));
        key += 128;
    }
}
BENCHMARK(BM_FlatMapHitLookup);

static void
BM_DaryHeapCompletions(benchmark::State &state)
{
    // The SM completion pattern: a window of in-flight loads, push one
    // and pop the earliest each step.
    using Completion = std::pair<Cycle, SmId>;
    DaryHeap<Completion> heap;
    heap.reserve(1024);
    Cycle now = 0;
    for (SmId sm = 0; sm < 30; ++sm)
        heap.emplace(now + 100 + sm * 7, sm);
    for (auto _ : state) {
        ++now;
        heap.emplace(now + 100 + now % 97, static_cast<SmId>(now % 30));
        benchmark::DoNotOptimize(heap.top());
        heap.pop();
    }
}
BENCHMARK(BM_DaryHeapCompletions);

static void
BM_PriorityQueueCompletions(benchmark::State &state)
{
    using Completion = std::pair<Cycle, SmId>;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>>
        heap;
    Cycle now = 0;
    for (SmId sm = 0; sm < 30; ++sm)
        heap.emplace(now + 100 + sm * 7, sm);
    for (auto _ : state) {
        ++now;
        heap.emplace(now + 100 + now % 97, static_cast<SmId>(now % 30));
        benchmark::DoNotOptimize(heap.top());
        heap.pop();
    }
}
BENCHMARK(BM_PriorityQueueCompletions);

namespace
{

/**
 * The event-driven kernel loop's SM ready-event pattern: 30 SMs with
 * one pending event each; pop the earliest, re-schedule it a small
 * delta ahead (back-to-back issue / compute batch) with an occasional
 * DRAM-latency far push. The delta mix follows the distances the
 * engine actually generates. `delta_sel` indexes a distribution from
 * all-near to stall-heavy.
 */
template <typename Queue>
void
smReadyEventPattern(benchmark::State &state, Queue &queue,
                    std::int64_t delta_sel)
{
    static constexpr Cycle near_deltas[] = {1, 1, 5, 17};
    static constexpr Cycle far_deltas[] = {1, 5, 17, 400};
    const Cycle *deltas =
        delta_sel == 0 ? near_deltas : far_deltas;
    for (SmId sm = 0; sm < 30; ++sm)
        queue.push(sm % 7, sm);
    std::uint64_t step = 0;
    for (auto _ : state) {
        auto [now, sm] = queue.popMin();
        benchmark::DoNotOptimize(sm);
        queue.push(now + deltas[step++ % 4], sm);
    }
}

/** DaryHeap behind the CalendarQueue interface, for comparison. */
struct HeapCalendar
{
    DaryHeap<std::pair<Cycle, std::uint32_t>> heap;
    void push(Cycle at, std::uint32_t id) { heap.emplace(at, id); }
    std::pair<Cycle, std::uint32_t>
    popMin()
    {
        auto top = heap.top();
        heap.pop();
        return top;
    }
};

} // namespace

static void
BM_CalendarQueueSmEvents(benchmark::State &state)
{
    CalendarQueue queue(30);
    queue.clear(0);
    smReadyEventPattern(state, queue, state.range(0));
}
BENCHMARK(BM_CalendarQueueSmEvents)->Arg(0)->Arg(1);

static void
BM_DaryHeapSmEvents(benchmark::State &state)
{
    HeapCalendar queue;
    queue.heap.reserve(64);
    smReadyEventPattern(state, queue, state.range(0));
}
BENCHMARK(BM_DaryHeapSmEvents)->Arg(0)->Arg(1);

static void
BM_AddressMapToLocal(benchmark::State &state)
{
    mem::AddressMap map(12, 256);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.toLocal(addr += 32));
    }
}
BENCHMARK(BM_AddressMapToLocal);

static void
BM_CacheAccessHitHot(benchmark::State &state)
{
    // Pure tag-scan hit path over the flat per-cache line arrays.
    mem::CacheParams p;
    p.sizeBytes = 128 * 1024;
    p.assoc = 16;
    mem::SectoredCache cache(p);
    for (Addr a = 0; a < 64 * 128; a += 128)
        cache.insert(a, 0xF, 0);
    Addr addr = 0;
    for (auto _ : state) {
        auto r = cache.access(addr, 32, false);
        benchmark::DoNotOptimize(r);
        addr = (addr + 128) % (64 * 128);
    }
}
BENCHMARK(BM_CacheAccessHitHot);

namespace
{

mem::CacheParams
policyBenchParams(std::int64_t policy_index)
{
    mem::CacheParams p;
    p.sizeBytes = 128 * 1024;
    p.assoc = 16;
    p.policy = mem::allPolicies()[static_cast<std::size_t>(
        policy_index)];
    return p;
}

} // namespace

static void
BM_CacheHitByPolicy(benchmark::State &state)
{
    // The policy cost on the hit path: one onHit per access (LRU
    // bumps a stamp, SIEVE sets a bit, FIFO/Random do nothing). Arg
    // is the index into mem::allPolicies().
    mem::SectoredCache cache(policyBenchParams(state.range(0)));
    for (Addr a = 0; a < 64 * 128; a += 128)
        cache.insert(a, 0xF, 0);
    Addr addr = 0;
    for (auto _ : state) {
        auto r = cache.access(addr, 32, false);
        benchmark::DoNotOptimize(r);
        addr = (addr + 128) % (64 * 128);
    }
    state.SetLabel(mem::policyName(
        mem::allPolicies()[static_cast<std::size_t>(state.range(0))]));
}
BENCHMARK(BM_CacheHitByPolicy)->DenseRange(0, 4);

static void
BM_CacheFillEvictByPolicy(benchmark::State &state)
{
    // The policy cost on the miss path: every miss past the first
    // 16 ways of a set victimizes, exercising the victim pick (the
    // set scan's oldest stamp, S3FIFO queue rotation, SIEVE hand
    // walk) plus onInsert. The footprint is 4x the cache so each set
    // thrashes.
    mem::CacheParams p = policyBenchParams(state.range(0));
    mem::SectoredCache cache(p);
    const Addr span = 4 * p.sizeBytes;
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, 128, false));
        addr = (addr + 128) % span;
    }
    state.SetLabel(mem::policyName(
        mem::allPolicies()[static_cast<std::size_t>(state.range(0))]));
}
BENCHMARK(BM_CacheFillEvictByPolicy)->DenseRange(0, 4);

static void
BM_OracleDetectorAccess(benchmark::State &state)
{
    // The profiling pass's oracle (trackers = 0) on a rotation of
    // range(0) chunks, one sector access per simulated cycle. The
    // timeout is scaled so every phase sees 8 touches and then times
    // out: exactly range(0) trackers are live, and the phase churn is
    // the same at every pool size. Per-access cost should not grow
    // with the pool.
    const std::uint64_t chunks = static_cast<std::uint64_t>(state.range(0));
    detect::StreamingDetectorParams params;
    params.trackers = 0;
    params.entries = 1 << 16; // SHM_upper_bound's predictor
    params.timeoutCycles = 8 * chunks;
    detect::StreamingDetector detector(params);
    std::vector<detect::DetectionEvent> events;
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t chunk = i % chunks;
        std::uint64_t sector = (i / chunks) % 124; // never block 31
        detector.access(chunk * params.chunkBytes + sector * 32, false, i,
                        events);
        events.clear();
        ++i;
    }
}
BENCHMARK(BM_OracleDetectorAccess)->Arg(8)->Arg(512)->Arg(4096);

static void
BM_ProfileRecordAccess(benchmark::State &state)
{
    // The profiling pass (AccessProfile, one partition) on
    // BM_OracleDetectorAccess's stream: a rotation of range(0) chunks,
    // one sector access per simulated cycle, block 31 never touched.
    // The profile keeps the detector's 6000-cycle timeout, so phases
    // end by budget at 8 chunks and by timeout at 512 and 4096, every
    // few touches. Per-access cost should not grow with the chunks.
    const std::uint64_t chunks = static_cast<std::uint64_t>(state.range(0));
    detect::AccessProfile profile(1, chunks * 4096);
    std::uint64_t i = 0;
    for (auto _ : state) {
        std::uint64_t chunk = i % chunks;
        std::uint64_t sector = (i / chunks) % 124; // never block 31
        profile.recordAccess(0, chunk * 4096 + sector * 32, false, i);
        ++i;
    }
    benchmark::DoNotOptimize(profile.accessRatios());
}
BENCHMARK(BM_ProfileRecordAccess)->Arg(8)->Arg(512)->Arg(4096);

BENCHMARK_MAIN();
