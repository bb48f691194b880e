#include "detect/streaming.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::detect
{

StreamingDetector::StreamingDetector(const StreamingDetectorParams &params)
    : config(params)
{
    shm_assert(config.entries > 0, "predictor needs at least one entry");
    shm_assert(config.chunkBytes >= config.blockBytes,
               "chunk smaller than block");
    shm_assert(blocksPerChunk() <= 64, "access mask is 64 bits");
    entries.resize(config.entries);
    if (config.trackers > 0)
        trackers.resize(config.trackers);
    cooldown.resize(config.cooldownEntries);
}

bool
StreamingDetector::predictStreaming(LocalAddr addr) const
{
    return entries[indexOf(chunkOf(addr))].streaming;
}

bool
StreamingDetector::confirmedStreaming(LocalAddr addr, Cycle now) const
{
    std::uint64_t chunk = chunkOf(addr);
    const Entry &e = entries[indexOf(chunk)];
    if (e.everUpdated && e.lastUpdater == chunk && e.streaming)
        return true;
    if (inCooldown(chunk, now))
        return true;
    // An active MAT will deliver a verdict for this phase, so the
    // engine may serve it at chunk granularity and defer verification
    // to the detection event — with the Table III/IV costs if the
    // phase turns out random.
    if (oracle())
        return liveSlot.contains(chunk);
    for (const auto &t : trackers)
        if (t.valid && t.chunk == chunk)
            return true;
    return false;
}

void
StreamingDetector::finalize(Tracker &t, std::vector<DetectionEvent> &events,
                            Cycle now, PhaseExit exit)
{
    // All blocks touched => streaming; any untouched block => random.
    std::uint64_t full = (blocksPerChunk() >= 64)
                             ? ~0ull
                             : ((1ull << blocksPerChunk()) - 1);
    bool streaming = (t.accessMask & full) == full;

    Entry &e = entries[indexOf(t.chunk)];
    e.streaming = streaming;
    e.everUpdated = true;
    e.lastUpdater = t.chunk;

    events.push_back({t.chunk, streaming, t.predictedStreaming,
                      t.writeFlag, t.accessMask, exit});
    t.valid = false;
    if (oracle()) {
        liveSlot.erase(t.chunk);
        freeSlots.push(static_cast<std::uint32_t>(&t - trackers.data()));
        ++t.generation;
    }

    if (exit == PhaseExit::Coverage && !cooldown.empty()) {
        // Remember the chunk briefly so straggling sector accesses do
        // not start a junk monitoring phase.
        cooldown[cooldownNext] = {t.chunk, now + config.cooldownCycles};
        cooldownNext = (cooldownNext + 1) %
                       static_cast<std::uint32_t>(cooldown.size());
    }
}

bool
StreamingDetector::inCooldown(std::uint64_t chunk, Cycle now) const
{
    for (const auto &c : cooldown)
        if (c.until > now && c.chunk == chunk)
            return true;
    return false;
}

StreamingDetector::Tracker *
StreamingDetector::findTracker(std::uint64_t chunk)
{
    if (oracle()) {
        const std::uint32_t *slot = liveSlot.find(chunk);
        return slot ? &trackers[*slot] : nullptr;
    }
    for (auto &t : trackers)
        if (t.valid && t.chunk == chunk)
            return &t;
    return nullptr;
}

StreamingDetector::Tracker *
StreamingDetector::allocTracker(std::uint64_t chunk, Cycle now,
                                std::vector<DetectionEvent> &events)
{
    if (oracle()) {
        // Unlimited trackers: the lowest free slot, else a new one.
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(trackers.size());
            trackers.push_back({});
        } else {
            slot = freeSlots.top();
            freeSlots.pop();
        }
        liveSlot[chunk] = slot;
        deadlines.push({now + config.timeoutCycles, slot,
                        trackers[slot].generation});
        return &trackers[slot];
    }
    for (auto &t : trackers)
        if (!t.valid)
            return &t;
    // No free tracker: reclaim one that has timed out, if any.
    for (auto &t : trackers) {
        if (now >= t.started + config.timeoutCycles) {
            finalize(t, events, now, PhaseExit::Timeout);
            return &t;
        }
    }
    return nullptr;
}

void
StreamingDetector::expireTimedOut(Cycle now,
                                  std::vector<DetectionEvent> &events)
{
    if (!oracle()) {
        for (auto &t : trackers) {
            if (t.valid && now >= t.started + config.timeoutCycles) {
                ++statTimeoutExits;
                finalize(t, events, now, PhaseExit::Timeout);
            }
        }
        return;
    }
    // Every deadline due by now; one whose tracker finalized since
    // (its generation moved on) is stale and dropped.
    expiredSlots.clear();
    while (!deadlines.empty() && now >= deadlines.top().at) {
        const Deadline d = deadlines.top();
        deadlines.pop();
        if (trackers[d.slot].generation == d.generation)
            expiredSlots.push_back(d.slot);
    }
    // Slot order, the order a scan of the pool finalizes them in:
    // SHM_upper_bound's own MEE consumes these events in order.
    std::sort(expiredSlots.begin(), expiredSlots.end());
    for (std::uint32_t slot : expiredSlots) {
        ++statTimeoutExits;
        finalize(trackers[slot], events, now, PhaseExit::Timeout);
    }
}

void
StreamingDetector::access(LocalAddr addr, bool is_write, Cycle now,
                          std::vector<DetectionEvent> &events)
{
    // Lazily expire timed-out monitoring phases.
    expireTimedOut(now, events);

    std::uint64_t chunk = chunkOf(addr);
    std::uint32_t block_in_chunk = static_cast<std::uint32_t>(
        (addr % config.chunkBytes) / config.blockBytes);

    Tracker *t = findTracker(chunk);
    if (!t) {
        if (inCooldown(chunk, now)) {
            ++statCooldownAbsorbed;
            return; // straggler after a completed phase
        }
        if (!entries[indexOf(chunk)].streaming && !oracle()) {
            if (++remonitorTick % config.randomRemonitorPeriod != 0) {
                ++statRemonitorSkipped;
                return; // pace re-monitoring of random chunks
            }
            std::uint32_t random_trackers = 0;
            for (const auto &rt : trackers)
                random_trackers += rt.valid && !rt.predictedStreaming;
            if (random_trackers >= config.randomMonitorLimit) {
                ++statRemonitorSkipped;
                return; // keep MATs free for the streaming fronts
            }
        }
        t = allocTracker(chunk, now, events);
        if (!t) {
            ++statNoTrackerFree;
            return; // all MATs busy: chunk goes unmonitored
        }
        ++statPhasesStarted;
        t->valid = true;
        t->chunk = chunk;
        t->predictedStreaming = entries[indexOf(chunk)].streaming;
        t->writeFlag = false;
        t->accessMask = 0;
        t->accesses = 0;
        t->started = now;
    }

    t->accessMask |= (1ull << block_in_chunk);
    t->writeFlag |= is_write;
    ++t->accesses;

    std::uint64_t full = (blocksPerChunk() >= 64)
                             ? ~0ull
                             : ((1ull << blocksPerChunk()) - 1);
    std::uint32_t sectors_per_block = config.blockBytes /
                                      config.sectorBytes;
    if ((t->accessMask & full) == full) {
        // Every block was touched: finalize early as streaming and
        // absorb the stragglers.
        ++statCoverageExits;
        finalize(*t, events, now, PhaseExit::Coverage);
    } else if (t->accesses >=
               config.monitorAccesses * sectors_per_block) {
        // The access budget ran out with gaps left: random.
        ++statBudgetExits;
        finalize(*t, events, now, PhaseExit::Budget);
    }
}

void
StreamingDetector::finalizeAll(Cycle now, std::vector<DetectionEvent> &events)
{
    for (auto &t : trackers)
        if (t.valid)
            finalize(t, events, now, PhaseExit::Timeout);
    if (oracle())
        clearOraclePool(); // every phase is closed
}

void
StreamingDetector::clearOraclePool()
{
    trackers.clear();
    liveSlot.clear();
    freeSlots.clear();
    deadlines.clear();
}

void
StreamingDetector::reset()
{
    for (Entry &e : entries)
        e = Entry{};
    if (oracle()) {
        clearOraclePool(); // oracle mode grows the pool on demand
    } else {
        for (Tracker &t : trackers)
            t = Tracker{};
    }
    for (CooldownEntry &c : cooldown)
        c = CooldownEntry{};
    cooldownNext = 0;
    remonitorTick = 0;
}

void
StreamingDetector::primePrediction(std::uint64_t chunk, bool streaming)
{
    Entry &e = entries[indexOf(chunk)];
    e.streaming = streaming;
    e.everUpdated = true;
    e.lastUpdater = chunk;
}

bool
StreamingDetector::entryNeverUpdated(std::uint64_t chunk) const
{
    return !entries[indexOf(chunk)].everUpdated;
}

std::uint64_t
StreamingDetector::entryLastUpdater(std::uint64_t chunk) const
{
    return entries[indexOf(chunk)].lastUpdater;
}

void
StreamingDetector::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, "stream_detector");
    statGroup.addScalar("phases_started", &statPhasesStarted,
                        "monitoring phases begun");
    statGroup.addScalar("coverage_exits", &statCoverageExits,
                        "phases ended by full block coverage");
    statGroup.addScalar("budget_exits", &statBudgetExits,
                        "phases ended by the access budget");
    statGroup.addScalar("timeout_exits", &statTimeoutExits,
                        "phases ended by the 6K-cycle timeout");
    statGroup.addScalar("cooldown_absorbed", &statCooldownAbsorbed,
                        "straggler accesses absorbed post-coverage");
    statGroup.addScalar("no_tracker_free", &statNoTrackerFree,
                        "accesses left unmonitored (MATs busy)");
    statGroup.addScalar("remonitor_skipped", &statRemonitorSkipped,
                        "paced-out random-chunk monitor starts");
}

std::uint64_t
StreamingDetector::hardwareBits() const
{
    // Bit vector + per-MAT (tag + write flag + per-block counters +
    // access counter + timeout counter), as itemized in Table IX.
    std::uint64_t tag_bits = 20;
    std::uint64_t mat_bits = tag_bits + 1 + blocksPerChunk() +
                             ceilLog2(config.monitorAccesses) +
                             ceilLog2(config.timeoutCycles);
    return config.entries + config.trackers * mat_bits;
}

} // namespace shmgpu::detect
