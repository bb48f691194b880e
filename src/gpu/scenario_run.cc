/**
 * @file
 * The multi-tenant context/stream engine.
 *
 * A scenario multiplexes N tenant contexts over one GpuSimulator. The
 * engine is serial, which lets the time-sliced mode save and restore a
 * tenant's whole execution context — SM units, pending calendar
 * events, the remaining kernel cycle budget — with two vector swaps.
 *
 * Time-sliced mode: a round-robin scheduler gives the whole GPU to one
 * tenant per quantum. Preemption freezes the tenant's progress: its
 * calendar events are drained into per-tenant storage as deltas
 * against the switch cycle and re-based on resume, while in-flight
 * load completions stay absolute (the loads were already served by the
 * memory system; the SM just observes them later). Each switch flushes
 * the detectors (MeeEngine::contextSwitch), optionally the metadata
 * caches, and re-arms the incoming tenant's read-only input regions
 * through the InputReadOnlyReset path by replaying its host copies.
 *
 * Partitioned (MIG-style) mode: contiguous SM and memory-partition
 * splits, all tenants concurrent on one shared calendar, no switches
 * and no flushes. Each tenant routes accesses through a private
 * AddressMap over its own partitions, so the per-partition local
 * spaces — and with local metadata addressing, the metadata
 * geometries — are fully disjoint.
 *
 * The MEE does not know which tenant issued an access. A tenant's MEE
 * counts (TenantRunMetrics) are windows of its partitions' own
 * counters: it takes the partitions when dispatched and gives them
 * back when switched out (after the switch flush, whose detector
 * finalizations are still its activity) or at the end of the run;
 * a partitioned tenant owns its slice for the whole run.
 *
 * Every tenant drives its kernels through the kernel engine
 * (simulator.cc: beginKernel, stepSmEvent, drainCalendar, kernelTail)
 * over the KernelContext embedded in its TenantContext, so a kernel
 * can pause at a slice boundary. A single workload or a recorded trace
 * is the one-tenant scenario: it never switches, so it runs each
 * kernel start to finish on the whole GPU. A trace tenant replays its
 * recorded streams (TraceReplay) where a workload tenant generates
 * them (KernelTrace); the source type is resolved once per slice or
 * run, never per op.
 */

#include "gpu/simulator.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/profile.hh"

namespace shmgpu::gpu
{

namespace
{

/** Round @p value up to a multiple of @p align (any align, not just
 *  powers of two — a 12-partition GPU's stride is not one). */
Addr
roundUpTo(Addr value, Addr align)
{
    return divCeil(value, align) * align;
}

} // namespace

void
GpuSimulator::initScenario()
{
    const workload::ScenarioSpec &scn = scenario;
    const auto n = static_cast<std::uint32_t>(scn.tenants.size());
    if (const auto &trace = scn.tenants[0].trace)
        shm_assert(trace->numSms == gpuConfig.numSms,
                   "trace was recorded for {} SMs, GPU has {}",
                   trace->numSms, gpuConfig.numSms);

    tenants = std::vector<TenantContext>(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        TenantContext &t = tenants[i];
        t.spec = &scn.tenants[i];
        t.id = static_cast<std::uint16_t>(i);
        t.state = TenantContext::State::NotArrived;
        t.wake = t.spec->arrivalCycle;
    }

    if (scn.policy == workload::SharePolicy::Partitioned) {
        shm_assert(!meeConfig.secure || meeConfig.localMetadataAddressing,
                   "partitioned scenarios require local metadata "
                   "addressing: a global metadata geometry would alias "
                   "the tenants' overlapping per-partition spaces");
        shm_assert(n <= gpuConfig.numSms && n <= gpuConfig.numPartitions,
                   "scenario '{}' has {} tenants but only {} SMs / {} "
                   "partitions to split",
                   scn.name, n, gpuConfig.numSms, gpuConfig.numPartitions);
        const std::uint32_t sm_base = gpuConfig.numSms / n;
        const std::uint32_t sm_rem = gpuConfig.numSms % n;
        const std::uint32_t part_base = gpuConfig.numPartitions / n;
        const std::uint32_t part_rem = gpuConfig.numPartitions % n;
        std::uint32_t sm_cursor = 0;
        PartitionId part_cursor = 0;
        tenantOfSm.assign(gpuConfig.numSms, 0);
        for (std::uint32_t i = 0; i < n; ++i) {
            TenantContext &t = tenants[i];
            KernelContext &k = t.kernel;
            k.smLo = sm_cursor;
            k.smHi = sm_cursor + sm_base + (i < sm_rem ? 1 : 0);
            sm_cursor = k.smHi;
            k.partLo = part_cursor;
            t.partHi = static_cast<PartitionId>(
                part_cursor + part_base + (i < part_rem ? 1 : 0));
            part_cursor = t.partHi;
            t.ownedMap = std::make_unique<mem::AddressMap>(
                t.numParts(), gpuConfig.interleaveBytes);
            k.addrMap = t.ownedMap.get();
            t.bufferBases = workload::layoutBuffers(t.spec->workload);
            const Addr footprint =
                workload::footprintBytes(t.spec->workload);
            shm_assert(footprint <= gpuConfig.protectedBytesPerPartition *
                                        t.numParts(),
                       "tenant '{}' ({} B) exceeds its partition slice's "
                       "protected space",
                       t.spec->name, footprint);
            for (std::uint32_t s = k.smLo; s < k.smHi; ++s)
                tenantOfSm[s] = t.id;
        }
        return;
    }

    // Time-sliced: every tenant sees the whole GPU through the global
    // address map, with its buffers stacked at disjoint bases. Bases
    // are aligned to a whole number of detector regions and stream
    // chunks per partition so no RO region or chunk straddles two
    // tenants, and to the 64 KiB buffer granularity layoutBuffers
    // assumes (tenant 0 starts at 0, so a lone workload keeps the
    // layout its own layoutBuffers gives it).
    const Addr granule =
        std::max<Addr>({meeConfig.roDetector.regionBytes,
                        meeConfig.streamDetector.chunkBytes,
                        Addr{64} * 1024});
    const Addr align = granule * gpuConfig.numPartitions;
    Addr base = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        TenantContext &t = tenants[i];
        t.kernel.smLo = 0;
        t.kernel.smHi = gpuConfig.numSms;
        t.kernel.partLo = 0;
        t.partHi = static_cast<PartitionId>(gpuConfig.numPartitions);
        t.kernel.addrMap = &map;
        t.bufferBases = workload::layoutBuffers(t.spec->workload, base);
        const Addr end = base + workload::footprintBytes(t.spec->workload);
        shm_assert(end <= gpuConfig.protectedBytesPerPartition *
                              gpuConfig.numPartitions,
                   "scenario '{}' exceeds the protected space at tenant "
                   "'{}' ({} B cumulative)",
                   scn.name, t.spec->name, end);
        base = roundUpTo(end, align);
        t.savedSms.resize(gpuConfig.numSms);
        for (auto &u : t.savedSms)
            u.inflight.resize(gpuConfig.smWindow);
    }
}

ScenarioMetrics
GpuSimulator::run()
{
    if (scenario.policy == workload::SharePolicy::TimeSliced)
        runTimeSliced();
    else if (tenants[0].spec->trace)
        runPartitioned<workload::TraceReplay>();
    else
        runPartitioned<workload::KernelTrace>();

    // Give back what is still held: the last dispatched tenant's
    // partitions (time-sliced), or every tenant's static slice
    // (partitioned, which owns its partitions from cycle 0).
    if (scenario.policy == workload::SharePolicy::Partitioned)
        for (auto &t : tenants)
            chargeTenant(t, true);
    else if (activeTenant >= 0)
        chargeTenant(tenants[static_cast<std::uint32_t>(activeTenant)],
                     true);

    if (collector)
        collector->finalize();

    const ScenarioMetrics metrics = gatherMetrics();
    statCycles.set(static_cast<double>(currentCycle));
    statInstructions.set(static_cast<double>(metrics.total.instructions));
    std::uint64_t window_stalls = 0;
    for (const auto &t : tenants)
        window_stalls += t.windowStalls;
    statWindowStalls.set(static_cast<double>(window_stalls));
    statCyclesSkipped.set(static_cast<double>(cyclesSkipped));
    return metrics;
}

void
GpuSimulator::runTimeSliced()
{
    profile::ScopedTimer timer(profile::Phase::KernelLoop);
    using State = TenantContext::State;

    const auto n = static_cast<std::uint32_t>(tenants.size());
    const Cycle quantum = scenario.quantumCycles;
    Cycle now = 0;
    std::uint32_t rr = 0; //!< round-robin scan start

    for (;;) {
        // Pick the first schedulable tenant at or after rr; if every
        // unfinished tenant is waiting (arrival or drain), jump the
        // clock to the earliest wake instead of enumerating idle time.
        std::uint32_t pick = n;
        bool any_unfinished = false;
        Cycle min_wake = invalidCycle;
        for (std::uint32_t k = 0; k < n; ++k) {
            const std::uint32_t i = (rr + k) % n;
            TenantContext &t = tenants[i];
            if (t.state == State::Finished)
                continue;
            any_unfinished = true;
            if (t.state == State::Running || t.wake <= now) {
                if (pick == n)
                    pick = i;
            } else {
                min_wake = std::min(min_wake, t.wake);
            }
        }
        if (!any_unfinished)
            break;
        if (pick == n) {
            now = min_wake;
            continue;
        }

        // Only an actual change of tenant costs a switch: a lone
        // tenant runs each kernel start to finish.
        if (static_cast<int>(pick) != activeTenant)
            contextSwitchTo(pick, now);

        const Cycle slice_end = saturatingAdd(now, quantum);
        now = runTenantSlice(tenants[pick], now, slice_end);
        rr = (pick + 1) % n;
    }

    currentCycle = 0;
    for (const auto &t : tenants)
        currentCycle = std::max(currentCycle, t.finishCycle);
}

template <typename Source>
void
GpuSimulator::runPartitioned()
{
    profile::ScopedTimer timer(profile::Phase::KernelLoop);
    using State = TenantContext::State;

    // Tenant lifecycle wakeups: arrivals, then each kernel's drain
    // completion. Processed in (cycle, tenant) order, and before any
    // calendar event at the same or a later cycle — so every calendar
    // push a wakeup triggers lands at or after the wheel's cursor.
    std::vector<std::pair<Cycle, std::uint32_t>> wakes;
    wakes.reserve(tenants.size());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(tenants.size()); ++i)
        wakes.emplace_back(tenants[i].spec->arrivalCycle, i);

    for (;;) {
        // Calendar events strictly before the earliest wakeup go first.
        const auto it = std::min_element(wakes.begin(), wakes.end());
        const Cycle next_wake = it == wakes.end() ? invalidCycle : it->first;
        Cycle now;
        std::uint32_t sm;
        if (!calendar.popBefore(next_wake, now, sm)) {
            if (it == wakes.end())
                break; // no wakeup left and the calendar is empty
            const auto [at, i] = *it;
            wakes.erase(it);
            TenantContext &t = tenants[i];
            if (t.state == State::NotArrived) {
                t.state = State::Running;
                t.startCycle = at;
                ++t.dispatches;
                startTenantKernel(t, at);
            } else {
                advanceTenantKernel(t, at);
            }
            continue;
        }

        TenantContext &t = tenants[tenantOfSm[sm]];
        if (tracer)
            tracer->setActiveTenant(t.id);
        noteEvent(t.kernel, now, sm);
        stepSmEvent(t.kernel, *std::get_if<Source>(&t.source),
                    static_cast<SmId>(sm), now);

        if (t.kernelActive && t.kernel.eventsPending == 0) {
            // The tenant's slice went quiet: compute where its kernel
            // actually ends and park it until then.
            const Cycle fin = kernelTail(t.kernel);
            t.state = State::Draining;
            t.wake = fin;
            wakes.emplace_back(fin, static_cast<std::uint32_t>(t.id));
        }
    }

    currentCycle = 0;
    for (const auto &t : tenants)
        currentCycle = std::max(currentCycle, t.finishCycle);
}

Cycle
GpuSimulator::runTenantSlice(TenantContext &t, Cycle now, Cycle slice_end)
{
    using State = TenantContext::State;

    if (t.state == State::NotArrived) {
        t.state = State::Running;
        t.startCycle = now;
        startTenantKernel(t, now);
    } else if (t.state == State::Draining) {
        // The previous kernel's tail was already computed; retire it
        // at the dispatch cycle (the tenant could not launch its next
        // kernel while preempted). A lone tenant is always dispatched
        // exactly at its wake cycle, so it never waits here.
        advanceTenantKernel(t, now);
        if (t.state == State::Finished)
            return now;
    }

    while (t.state == State::Running) {
        withSource(t, [&](auto &source) {
            drainCalendar(t.kernel, source, slice_end);
        });
        if (!calendar.empty())
            return slice_end; // preempted mid-kernel by the quantum

        const Cycle fin = kernelTail(t.kernel);
        if (fin > slice_end) {
            t.state = State::Draining;
            t.wake = fin;
            return slice_end;
        }
        advanceTenantKernel(t, fin);
        if (t.state == State::Finished)
            return fin;
        // Next kernel launched at fin; keep running inside the slice.
    }
    return slice_end;
}

void
GpuSimulator::startTenantKernel(TenantContext &t, Cycle at)
{
    const std::uint32_t k = t.nextKernel++;
    std::uint32_t max_outstanding = 0;
    if (const auto &trace = t.spec->trace) {
        const workload::TraceKernel &kernel = trace->kernels[k];
        for (const auto &copy : kernel.copies)
            applyTenantHostCopy(t, copy.base, copy.bytes,
                                copy.declaredReadOnly);
        t.source.emplace<workload::TraceReplay>(*trace, k);
        max_outstanding = kernel.window;
    } else {
        const workload::WorkloadSpec &wl = t.spec->workload;
        const auto &kspec = wl.kernels[k];
        for (const auto &copy : kspec.preCopies)
            applyTenantHostCopy(t, t.bufferBases.at(copy.buffer),
                                copy.marksReadOnly
                                    ? wl.buffers.at(copy.buffer).bytes
                                    : 0,
                                copy.declaredReadOnly);
        t.source.emplace<workload::KernelTrace>(wl, t.bufferBases, k,
                                                t.kernel.numSms());
        max_outstanding = kspec.maxOutstanding;
    }

    if (tracer)
        tracer->setActiveTenant(t.id);
    t.kernelTraceIdx = openKernel(at);
    t.kernelActive = true;
    beginKernel(t.kernel, at, kernelWindow(max_outstanding));
}

/**
 * Retire the current kernel at @p at (its precomputed end, or the
 * dispatch cycle of a drain-preempted tenant) and launch the next one.
 */
void
GpuSimulator::advanceTenantKernel(TenantContext &t, Cycle at)
{
    using State = TenantContext::State;

    currentCycle = at;
    if (tracer)
        tracer->setActiveTenant(t.id);
    closeKernel(t.kernel.partLo, t.partHi, at, t.kernelTraceIdx);
    ++t.kernelsRun;
    t.kernelActive = false;
    t.source = std::monostate{};

    if (t.nextKernel < t.numKernels()) {
        startTenantKernel(t, at);
        t.state = State::Running;
    } else {
        t.state = State::Finished;
        t.finishCycle = at;
        // Harvest the tenant's SM counters while it still owns them.
        for (std::uint32_t s = t.kernel.smLo; s < t.kernel.smHi; ++s) {
            t.instructions += sms[s].instructions;
            t.windowStalls += sms[s].windowStalls;
        }
    }
}

/**
 * Switch the GPU from the active tenant (if any) to @p pick at @p now:
 * flush the detectors (and optionally the MDCs), hand the partitions
 * from the outgoing tenant's share to the incoming one's, swap the
 * saved contexts, point the tracer at the new owner, and re-arm its
 * read-only input regions.
 */
void
GpuSimulator::contextSwitchTo(std::uint32_t pick, Cycle now)
{
    if (activeTenant >= 0) {
        // Flush first: the writebacks and detector finalizations are
        // still the outgoing tenant's activity.
        for (auto &p : partitions)
            scenarioFlushWbs +=
                p->contextSwitch(now, scenario.flushMdcOnSwitch);
        ++scenarioSwitches;

        TenantContext &old = tenants[static_cast<std::uint32_t>(
            activeTenant)];
        chargeTenant(old, true);
        old.savedSms.swap(sms);
        old.savedEvents.clear();
        while (!calendar.empty()) {
            const auto [at, id] = calendar.popMin();
            // at >= now: a Running tenant is only ever descheduled at
            // the cycle its slice ended, with every event at or past
            // that cycle.
            old.savedEvents.emplace_back(at - now, id);
        }
        if (old.kernelActive)
            old.capLeft = old.kernel.capEnd - now; // capEnd > now
    }

    TenantContext &t = tenants[pick];
    sms.swap(t.savedSms);
    calendar.clear(now);
    for (const auto &[delta, id] : t.savedEvents)
        calendar.push(saturatingAdd(now, delta), id);
    t.savedEvents.clear();
    if (t.kernelActive)
        t.kernel.capEnd = saturatingAdd(now, t.capLeft);

    activeTenant = static_cast<int>(pick);
    ++t.dispatches;
    chargeTenant(t, false);
    if (tracer)
        tracer->setActiveTenant(t.id);

    // Re-arm the tenant's read-only inputs: the switch-out reset wiped
    // the detector's region bits, and the InputReadOnlyReset path is
    // what re-establishes cheap RO treatment without re-encryption.
    for (const auto &r : t.armedRanges)
        for (PartitionId p = t.kernel.partLo; p < t.partHi; ++p)
            partitions[p]->hostCopy(r.lo, r.len, r.declared);

    // Oracle schemes (SHM_upper_bound): the switch-out flush also
    // dropped the profile-primed predictions, so re-prime the incoming
    // tenant's partitions — command-processor work, free like the
    // re-arm above.
    if (primedProfile)
        for (PartitionId p = t.kernel.partLo; p < t.partHi; ++p)
            partitions[p]->mee().primeFromProfile(*primedProfile);
}

void
GpuSimulator::chargeTenant(TenantContext &t, bool give_back)
{
    // Unsigned wrap-around: a take's negative partial sum is made
    // whole by the matching give-back.
    const auto charge = [give_back](std::uint64_t &field, double count) {
        const auto n = static_cast<std::uint64_t>(count);
        field += give_back ? n : 0 - n;
    };
    TenantRunMetrics &s = t.share;
    for (PartitionId p = t.kernel.partLo; p < t.partHi; ++p) {
        const mee::MeeEngine &mee = partitions[p]->mee();
        const mee::PredictionStats &ps = mee.predictionStats();
        const mem::SectoredCache *mdcs[] = {
            &mee.counterCache(), &mee.macCache(), &mee.bmtCache()};
        charge(s.memReads, mee.reads());
        charge(s.memWrites, mee.writes());
        for (const mem::SectoredCache *c : mdcs) {
            charge(s.mdcAccesses, c->accesses());
            // Hits and write-validates: everything but a fetching miss.
            charge(s.mdcHits, c->accesses() - c->misses());
        }
        charge(s.roCorrect, ps.roCorrect.value());
        charge(s.roMispredicts,
               ps.roMpInit.value() + ps.roMpAliasing.value());
        charge(s.strCorrect, ps.strCorrect.value());
        charge(s.strMispredicts,
               ps.strMpInit.value() + ps.strMpAliasing.value() +
                   ps.strMpRuntimeRo.value() +
                   ps.strMpRuntimeNonRo.value());
    }
}

void
GpuSimulator::applyTenantHostCopy(TenantContext &t, Addr base,
                                  std::uint64_t bytes,
                                  bool declared_read_only)
{
    if (bytes == 0)
        return; // a copy that does not mark read-only regions

    // An interleaved physical range covers one roughly contiguous
    // local window in every partition of the tenant's slice (the whole
    // GPU in time-sliced mode).
    const std::uint64_t stride =
        static_cast<std::uint64_t>(gpuConfig.interleaveBytes) *
        t.numParts();
    LocalAddr lo = base / stride * gpuConfig.interleaveBytes;
    LocalAddr hi =
        divCeil(base + bytes, stride) * gpuConfig.interleaveBytes;
    // Clamp both ends to the protected space: a copy that starts past
    // it would otherwise make lo > hi and the length underflow.
    hi = std::min<LocalAddr>(hi, gpuConfig.protectedBytesPerPartition);
    lo = std::min(lo, hi);
    for (PartitionId p = t.kernel.partLo; p < t.partHi; ++p)
        partitions[p]->hostCopy(lo, hi - lo, declared_read_only);

    if (scenario.policy == workload::SharePolicy::TimeSliced &&
        hi > lo)
        t.armedRanges.push_back({lo, hi - lo, declared_read_only});
}

ScenarioMetrics
GpuSimulator::gatherMetrics() const
{
    ScenarioMetrics sm;
    RunMetrics &m = sm.total;
    m.cycles = currentCycle;
    // The harvested per-tenant totals are authoritative: in time-sliced
    // mode the live `sms` hold only the last-dispatched tenant's units.
    for (const auto &t : tenants)
        m.instructions += t.instructions;
    m.ipc = m.cycles ? static_cast<double>(m.instructions) /
                           static_cast<double>(m.cycles)
                     : 0;

    double l2_accesses = 0;
    double l2_misses = 0;
    for (const auto &p : partitions) {
        const auto &ch = p->channel();
        m.bytesData += ch.bytesMoved(mem::TrafficClass::Data);
        m.bytesCounter += ch.bytesMoved(mem::TrafficClass::Counter);
        m.bytesMac += ch.bytesMoved(mem::TrafficClass::Mac);
        m.bytesBmt += ch.bytesMoved(mem::TrafficClass::Bmt);
        m.bytesExtra += ch.bytesMoved(mem::TrafficClass::Extra);

        const auto &mee = p->mee();
        const auto &ps = mee.predictionStats();
        m.roCorrect += ps.roCorrect.value();
        m.roMpInit += ps.roMpInit.value();
        m.roMpAliasing += ps.roMpAliasing.value();
        m.strCorrect += ps.strCorrect.value();
        m.strMpInit += ps.strMpInit.value();
        m.strMpAliasing += ps.strMpAliasing.value();
        m.strMpRuntimeRo += ps.strMpRuntimeRo.value();
        m.strMpRuntimeNonRo += ps.strMpRuntimeNonRo.value();
        m.sharedCtrReads += mee.sharedCounterReads();
        m.commonCtrHits += mee.commonCtrHits();
        m.roTransitions += mee.roTransitions();
        m.chunkMacAccesses += mee.chunkMacAccesses();
        m.blockMacAccesses += mee.blockMacAccesses();
        m.dualMacFallbacks += mee.dualMacFallbacks();
        m.victimHits += mee.victimHits();
        m.victimInserts += mee.victimInserts();

        m.energy.mdcAccesses += static_cast<std::uint64_t>(
            mee.counterCache().accesses() + mee.macCache().accesses() +
            mee.bmtCache().accesses());
        m.energy.aesBlocks += static_cast<std::uint64_t>(
            meeConfig.secure ? mee.counterCache().accesses() : 0);
        m.energy.hashes += static_cast<std::uint64_t>(
            mee.chunkMacAccesses() + mee.blockMacAccesses());

        for (std::uint32_t b = 0; b < gpuConfig.l2BanksPerPartition;
             ++b) {
            l2_accesses += p->bank(b).accesses();
            l2_misses += p->bank(b).misses();
        }
    }
    std::uint64_t total_bytes = m.bytesData + m.bytesCounter + m.bytesMac +
                                m.bytesBmt + m.bytesExtra;
    double peak = gpuConfig.dram.bytesPerCycle *
                  static_cast<double>(gpuConfig.numPartitions) *
                  static_cast<double>(m.cycles);
    m.bandwidthUtilization =
        peak > 0 ? static_cast<double>(total_bytes) / peak : 0;
    m.l2MissRate = l2_accesses > 0 ? l2_misses / l2_accesses : 0;

    m.energy.cycles = m.cycles;
    m.energy.instructions = m.instructions;
    m.energy.l2Accesses = static_cast<std::uint64_t>(l2_accesses);
    m.energy.dramBytes = total_bytes;

    sm.contextSwitches = scenarioSwitches;
    sm.mdcFlushWritebacks = scenarioFlushWbs;

    sm.tenants.reserve(tenants.size());
    for (const auto &t : tenants) {
        TenantRunMetrics tm = t.share;
        tm.name = t.spec->name;
        tm.arrivalCycle = t.spec->arrivalCycle;
        tm.startCycle = t.startCycle;
        tm.finishCycle = t.finishCycle;
        tm.instructions = t.instructions;
        tm.windowStalls = t.windowStalls;
        tm.kernelsRun = t.kernelsRun;
        tm.dispatches = t.dispatches;
        const Cycle span = t.finishCycle > t.spec->arrivalCycle
                               ? t.finishCycle - t.spec->arrivalCycle
                               : 0;
        tm.ipc = span ? static_cast<double>(t.instructions) /
                            static_cast<double>(span)
                      : 0;

        tm.mdcHitRate =
            tm.mdcAccesses ? static_cast<double>(tm.mdcHits) /
                                 static_cast<double>(tm.mdcAccesses)
                           : 0;
        const std::uint64_t ro_total = tm.roCorrect + tm.roMispredicts;
        tm.roAccuracy = ro_total ? static_cast<double>(tm.roCorrect) /
                                       static_cast<double>(ro_total)
                                 : 0;
        const std::uint64_t str_total =
            tm.strCorrect + tm.strMispredicts;
        tm.strAccuracy = str_total
                             ? static_cast<double>(tm.strCorrect) /
                                   static_cast<double>(str_total)
                             : 0;
        sm.tenants.push_back(std::move(tm));
    }
    return sm;
}

} // namespace shmgpu::gpu
