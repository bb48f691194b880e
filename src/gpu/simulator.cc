#include "gpu/simulator.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/profile.hh"

namespace shmgpu::gpu
{

namespace
{

InterconnectParams
makeIcntParams(const GpuParams &gp)
{
    InterconnectParams p = gp.icnt;
    p.latency = gp.icntLatency;
    return p;
}

} // namespace

GpuSimulator::GpuSimulator(const GpuParams &gpu_params,
                           const mee::MeeParams &mee_params,
                           const workload::ScenarioSpec &scenario_spec)
    : gpuConfig(gpu_params), meeConfig(mee_params),
      scenario(scenario_spec),
      map(gpu_params.numPartitions, gpu_params.interleaveBytes),
      icnt(makeIcntParams(gpu_params), gpu_params.numPartitions)
{
    workload::validateScenario(scenario);
    init();
    initScenario();
}

void
GpuSimulator::init()
{
    profile::ScopedTimer timer(profile::Phase::Init);

    // Metadata layout: per-partition geometry over local addresses
    // (PSSM-style), or one global geometry over physical addresses.
    meta::LayoutParams lp;
    lp.chunkBytes = meeConfig.streamDetector.chunkBytes;
    lp.bmtArity = meeConfig.bmtArity;
    lp.macBytes = meeConfig.macBytes;
    if (meeConfig.localMetadataAddressing) {
        lp.dataBytes = gpuConfig.protectedBytesPerPartition;
        layout = std::make_unique<meta::MetadataLayout>(lp);
    } else {
        lp.dataBytes = gpuConfig.protectedBytesPerPartition *
                       gpuConfig.numPartitions;
        globalLayout = std::make_unique<meta::MetadataLayout>(lp);
    }
    const meta::MetadataLayout *use_layout =
        meeConfig.localMetadataAddressing ? layout.get()
                                          : globalLayout.get();

    // Common-counter tables: on-chip, so one per partition for local
    // addressing and a single shared one for physical addressing.
    if (meeConfig.commonCounters) {
        unsigned tables = meeConfig.localMetadataAddressing
                              ? gpuConfig.numPartitions
                              : 1;
        for (unsigned t = 0; t < tables; ++t)
            commonTables.push_back(
                std::make_unique<meta::CommonCounterTable>(*use_layout));
    }

    for (PartitionId p = 0; p < gpuConfig.numPartitions; ++p) {
        meta::CommonCounterTable *table = nullptr;
        if (meeConfig.commonCounters) {
            table = meeConfig.localMetadataAddressing
                        ? commonTables[p].get()
                        : commonTables[0].get();
        }
        partitions.push_back(std::make_unique<Partition>(
            gpuConfig, meeConfig, p, use_layout, this, &map, table));
    }

    sms.resize(gpuConfig.numSms);
    for (auto &u : sms)
        u.inflight.resize(gpuConfig.smWindow);
    calendar = CalendarQueue(gpuConfig.numSms);
    calendar.reserve(gpuConfig.numSms); // each SM has at most one event

    rootStats.attach(nullptr, "sim");
    rootStats.addScalar("cycles", &statCycles, "simulated cycles");
    rootStats.addScalar("instructions", &statInstructions,
                        "instructions retired");
    rootStats.addScalar("window_stalls", &statWindowStalls,
                        "SM cycles stalled on the load window");
    rootStats.addScalar("kernels_run", &statKernelsRun, "kernel launches");
    rootStats.addScalar("cycle_cap_hits", &statCycleCapHits,
                        "kernels truncated by the cycle budget");
    rootStats.addScalar("cycles_skipped", &statCyclesSkipped,
                        "cycles the event-driven loop advanced over "
                        "without enumerating");
    icnt.regStats(&rootStats);
    for (auto &p : partitions)
        p->regStats(&rootStats);
}

GpuSimulator::~GpuSimulator() = default;

mem::Transaction
GpuSimulator::makeTxn(const workload::TraceOp &op,
                      const mem::PartitionAddr &pa, SmId sm, Cycle now)
{
    return {.phys = op.addr,
            .local = pa.local,
            .issue = now,
            .partition = pa.partition,
            .sm = sm,
            .bytes = op.bytes,
            .type = op.type,
            .space = op.space};
}

void
GpuSimulator::attachTracer(trace::Tracer *t)
{
    tracer = t;
    smLane = gpuConfig.numPartitions;
    if (tracer) {
        shm_assert(tracer->numLanes() == gpuConfig.numPartitions + 1,
                   "tracer has {} lanes, simulator needs {} (one per "
                   "partition plus the SM scheduler lane)",
                   tracer->numLanes(), gpuConfig.numPartitions + 1);
        for (PartitionId p = 0; p < gpuConfig.numPartitions; ++p)
            tracer->setLaneName(p, "partition " + std::to_string(p));
        tracer->setLaneName(smLane, "sm scheduler");
    }
    icnt.setTracer(tracer, smLane);
    for (auto &p : partitions)
        p->setTracer(tracer);
}

void
GpuSimulator::collectProfile(detect::AccessProfile *profile)
{
    collector = profile;
    for (auto &p : partitions)
        p->collectInto(profile);
}

void
GpuSimulator::attributeAgainst(const detect::TruthProfile *profile)
{
    for (auto &p : partitions)
        p->setTruthProfile(profile);
}

void
GpuSimulator::primeFromProfile(const detect::TruthProfile &profile)
{
    primedProfile = &profile;
    for (auto &p : partitions)
        p->mee().primeFromProfile(profile);
}

Cycle
GpuSimulator::enqueueMeta(PartitionId target, Addr bank_addr,
                          std::uint32_t bytes, mem::AccessType type,
                          mem::TrafficClass cls, Cycle now)
{
    return partitions.at(target)
        ->channel()
        .enqueue(now, bank_addr, bytes, type, cls)
        .complete;
}

std::uint32_t
GpuSimulator::kernelWindow(std::uint32_t max_outstanding) const
{
    return max_outstanding ? std::min(max_outstanding, gpuConfig.smWindow)
                           : gpuConfig.smWindow;
}

std::uint64_t
GpuSimulator::openKernel(Cycle at)
{
    const std::uint64_t kernel_idx = statKernelsRun.value();
    if (tracer)
        tracer->record(smLane, trace::EventKind::KernelBegin, at, 0,
                       kernel_idx);
    return kernel_idx;
}

void
GpuSimulator::closeKernel(PartitionId lo, PartitionId hi, Cycle at,
                          std::uint64_t kernel_idx)
{
    for (PartitionId p = lo; p < hi; ++p)
        partitions[p]->kernelBoundary(at);
    ++statKernelsRun;
    if (tracer)
        tracer->record(smLane, trace::EventKind::KernelEnd, at, 0,
                       kernel_idx);
}

/*
 * The event-driven kernel engine.
 *
 * Nothing in the model needs densely enumerated cycles — the memory
 * system, MEE, and detectors are all access-driven (every call takes
 * `now`) — so instead of ticking every SM every cycle, each SM carries
 * a next-ready cycle in a calendar and the loop jumps straight from
 * one event to the next, one calendar pop per event:
 *
 *   - op fetch at cycle c with N compute instructions retires the
 *     whole batch at once and schedules the memory issue at c + N;
 *   - a window-stalled read schedules its retry at the SM's earliest
 *     in-flight completion cycle (the only cycle a per-cycle loop's
 *     one-stall-per-cycle retry could succeed at);
 *   - an issued memory op schedules the next fetch at c + 1
 *     (back-to-back issue).
 *
 * Loads retire lazily. A per-cycle loop retires every completed load
 * before it ticks the SMs, but retirement only shrinks an SM's
 * `outstanding`, and only a read's window check reads that. So the
 * engine retires nothing per event: `outstanding` counts the loads
 * issued since the last retirement, an upper bound on the loads in
 * flight. Only when that bound reaches the window does retireLoads
 * compact the SM's completion array, retiring every completion
 * <= now and finding the earliest one left. A bound below the window
 * means the true count is below it too, so the read issues as the
 * per-cycle loop's would; otherwise the check sees the exact count
 * the loop sees, and a stall retries at the same earliest completion.
 * The issue/stall decision and the retry cycle are unchanged.
 *
 * This is bit-identical to ticking every SM every cycle: the calendar
 * pops events in (cycle, SM-id) order — a per-cycle loop's SM
 * iteration order — every icnt/partition call receives the same `now`
 * it would have received there, and every window decision is the
 * loop's. tests/test_kernel_loop_diff.cc holds the engine equal to the
 * per-cycle oracle in tests/reference_kernel_loop.hh on randomized
 * workloads.
 */

void
GpuSimulator::beginKernel(KernelContext &k, Cycle at, std::uint32_t window)
{
    k.window = window;
    k.kernelStart = at;
    k.capEnd = saturatingAdd(at, gpuConfig.maxCyclesPerKernel);
    k.maxCompletion = 0;
    k.lastDrain = at;
    k.cursor = invalidCycle;
    k.busyCycles = 0;
    k.drained = 0;
    for (std::uint32_t s = k.smLo; s < k.smHi; ++s) {
        SmUnit &u = sms[s];
        u.hasOp = false;
        shm_assert(u.outstanding == 0, "in-flight loads across kernels");
        calendar.push(at, s);
        ++k.eventsPending;
    }
}

void
GpuSimulator::noteEvent(KernelContext &k, Cycle now, std::uint32_t sm)
{
    --k.eventsPending;
    if (now == k.cursor)
        return;
    if (tracer && k.cursor != invalidCycle && now > k.cursor + 1)
        tracer->record(smLane, trace::EventKind::CalendarSkip, now,
                       static_cast<std::uint16_t>(sm), now - k.cursor - 1);
    k.cursor = now;
    ++k.busyCycles;
}

Cycle
GpuSimulator::retireLoads(SmUnit &u, Cycle now)
{
    Cycle earliest = invalidCycle;
    std::uint32_t live = 0;
    for (std::uint32_t i = 0; i < u.outstanding; ++i) {
        const Cycle complete = u.inflight[i];
        if (complete > now) {
            u.inflight[live++] = complete;
            earliest = std::min(earliest, complete);
        }
    }
    u.outstanding = live;
    return earliest;
}

template <typename Source>
void
GpuSimulator::stepSmEvent(KernelContext &k, Source &source, SmId sm,
                          Cycle now)
{
    SmUnit &u = sms[sm];

    if (!u.hasOp) {
        if (!source.next(static_cast<SmId>(sm - k.smLo), u.op)) {
            ++k.drained;
            k.lastDrain = now;
            return;
        }
        u.hasOp = true;
        u.pa = k.addrMap->toLocal(u.op.addr);
        // A partitioned tenant's private map yields slice-relative
        // partition indices; lift them to global ids.
        u.pa.partition = static_cast<PartitionId>(u.pa.partition + k.partLo);
        if (u.op.computeInstrs > 0) {
            // One compute instruction retires per cycle over
            // [now, now + N); batch them, clamped to the cycles that
            // exist before the cap.
            Cycle n = u.op.computeInstrs;
            Cycle avail = k.capEnd - now; // >= 1 by the invariant
            u.instructions += std::min(n, avail);
            if (tracer)
                tracer->record(smLane, trace::EventKind::SmRetire, now,
                               static_cast<std::uint16_t>(sm),
                               std::min(n, avail));
            if (n < avail) {
                calendar.push(now + n, sm);
                ++k.eventsPending;
            }
            return;
        }
        // computeInstrs == 0: the fetch cycle issues the memory op.
    }

    const mem::PartitionAddr pa = u.pa;
    Partition &part = *partitions[pa.partition];

    if (u.op.type == mem::AccessType::Read) {
        if (u.outstanding >= k.window) {
            // The upper bound reached the window: retire what completed
            // by now and check again with the exact count.
            const Cycle retry = retireLoads(u, now);
            if (u.outstanding >= k.window) {
                // Window full: a per-cycle loop burns one stall per
                // cycle until this SM's earliest completion retires
                // (nothing else shrinks its window). A zero window
                // never unstalls — it spins to the cap.
                u.windowStalls += std::min(retry, k.capEnd) - now;
                if (retry < k.capEnd) {
                    calendar.push(retry, sm);
                    ++k.eventsPending;
                }
                return;
            }
        }
        if (tracer)
            tracer->record(smLane, trace::EventKind::SmIssue, now,
                           static_cast<std::uint16_t>(sm), u.op.addr);
        Cycle complete = icnt.serveNow(makeTxn(u.op, pa, sm, now), part);
        shm_assert(u.outstanding < u.inflight.size(),
                   "SM {} issued a load past its {}-entry completion "
                   "array",
                   sm, u.inflight.size());
        u.inflight[u.outstanding++] = complete;
        k.maxCompletion = std::max(k.maxCompletion, complete);
    } else {
        if (tracer)
            tracer->record(smLane, trace::EventKind::SmIssue, now,
                           static_cast<std::uint16_t>(sm),
                           u.op.addr | (1ull << 63));
        icnt.serveNow(makeTxn(u.op, pa, sm, now), part);
    }
    ++u.instructions;
    u.hasOp = false;
    if (now + 1 < k.capEnd) {
        calendar.push(now + 1, sm); // back-to-back issue
        ++k.eventsPending;
    }
}

template <typename Source>
void
GpuSimulator::drainCalendar(KernelContext &k, Source &source, Cycle limit)
{
    Cycle now;
    std::uint32_t sm;
    while (calendar.popBefore(limit, now, sm)) {
        noteEvent(k, now, sm);
        stepSmEvent(k, source, static_cast<SmId>(sm), now);
    }
}

template void GpuSimulator::stepSmEvent(KernelContext &,
                                        workload::KernelTrace &, SmId,
                                        Cycle);
template void GpuSimulator::stepSmEvent(KernelContext &,
                                        workload::TraceReplay &, SmId,
                                        Cycle);
template void GpuSimulator::drainCalendar(KernelContext &,
                                          workload::KernelTrace &, Cycle);
template void GpuSimulator::drainCalendar(KernelContext &,
                                          workload::TraceReplay &, Cycle);

Cycle
GpuSimulator::kernelTail(KernelContext &k)
{
    // Wind the clock to where a per-cycle loop would have stopped: one
    // past the last event if everything drained and landed before the
    // cap, the cap itself (with the cap-hit bookkeeping) if not.
    Cycle final_cycle;
    bool cap_hit;
    if (k.drained == k.numSms()) {
        const Cycle done = std::max(k.lastDrain, k.maxCompletion);
        cap_hit = done >= k.capEnd;
        final_cycle = cap_hit ? k.capEnd : done + 1;
    } else {
        // Some SM was frozen by the cap mid-compute or mid-stall.
        cap_hit = true;
        final_cycle = k.capEnd;
    }
    if (cap_hit)
        ++statCycleCapHits;
    // On a cap hit the outstanding loads are abandoned; on a normal
    // exit every completion is <= final_cycle but retires lazily, at a
    // full window only — either way the kernel ends with none.
    for (std::uint32_t s = k.smLo; s < k.smHi; ++s)
        sms[s].outstanding = 0;

    const std::uint64_t advanced = final_cycle - k.kernelStart;
    cyclesSkipped += advanced - k.busyCycles;
    if (profile::enabled()) {
        profile::addCount(profile::Counter::KernelCycles, advanced);
        profile::addCount(profile::Counter::CyclesSkipped,
                          advanced - k.busyCycles);
    }
    return final_cycle;
}

} // namespace shmgpu::gpu
