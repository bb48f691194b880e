/**
 * @file
 * The linear-scan oracle tracker: the differential-test reference for
 * StreamingDetector's indexed unlimited-MAT (oracle) mode.
 *
 * This is the oracle-mode detector as it was before it gained its
 * chunk index, free-slot heap and deadline heap. Every access scans
 * the whole tracker pool to expire timed-out phases (in slot order),
 * to find the chunk's live tracker, and to allocate the lowest free
 * slot; the pool grows by one slot when none is free. Bounded-MAT
 * mode is left out: it still runs these scans in the real detector.
 * tests/test_oracle_tracker_diff.cc holds the two equal, event order
 * included.
 */

#ifndef SHMGPU_TESTS_REFERENCE_STREAMING_DETECTOR_HH
#define SHMGPU_TESTS_REFERENCE_STREAMING_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "detect/streaming.hh"

namespace shmgpu::test
{

class ReferenceStreamingDetector
{
  public:
    using Params = detect::StreamingDetectorParams;
    using DetectionEvent = detect::DetectionEvent;
    using PhaseExit = detect::PhaseExit;

    explicit ReferenceStreamingDetector(const Params &params)
        : config(params)
    {
        shm_assert(config.trackers == 0, "reference is oracle-mode only");
        shm_assert(config.entries > 0, "predictor needs at least one entry");
        shm_assert(blocksPerChunk() <= 64, "access mask is 64 bits");
        entries.resize(config.entries);
        cooldown.resize(config.cooldownEntries);
    }

    std::uint64_t chunkOf(LocalAddr addr) const
    {
        return addr / config.chunkBytes;
    }

    bool predictStreaming(LocalAddr addr) const
    {
        return entries[indexOf(chunkOf(addr))].streaming;
    }

    bool
    confirmedStreaming(LocalAddr addr, Cycle now) const
    {
        std::uint64_t chunk = chunkOf(addr);
        const Entry &e = entries[indexOf(chunk)];
        if (e.everUpdated && e.lastUpdater == chunk && e.streaming)
            return true;
        if (inCooldown(chunk, now))
            return true;
        for (const auto &t : trackers)
            if (t.valid && t.chunk == chunk)
                return true;
        return false;
    }

    void
    access(LocalAddr addr, bool is_write, Cycle now,
           std::vector<DetectionEvent> &events)
    {
        // Lazily expire timed-out monitoring phases.
        for (auto &t : trackers) {
            if (t.valid && now >= t.started + config.timeoutCycles) {
                ++statTimeoutExits;
                finalize(t, events, now, PhaseExit::Timeout);
            }
        }

        std::uint64_t chunk = chunkOf(addr);
        std::uint32_t block_in_chunk = static_cast<std::uint32_t>(
            (addr % config.chunkBytes) / config.blockBytes);

        Tracker *t = findTracker(chunk);
        if (!t) {
            if (inCooldown(chunk, now)) {
                ++statCooldownAbsorbed;
                return; // straggler after a completed phase
            }
            t = allocTracker();
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

        std::uint32_t sectors_per_block = config.blockBytes /
                                          config.sectorBytes;
        if ((t->accessMask & fullMask()) == fullMask()) {
            ++statCoverageExits;
            finalize(*t, events, now, PhaseExit::Coverage);
        } else if (t->accesses >=
                   config.monitorAccesses * sectors_per_block) {
            ++statBudgetExits;
            finalize(*t, events, now, PhaseExit::Budget);
        }
    }

    void
    finalizeAll(Cycle now, std::vector<DetectionEvent> &events)
    {
        for (auto &t : trackers)
            if (t.valid)
                finalize(t, events, now, PhaseExit::Timeout);
    }

    void
    reset()
    {
        for (Entry &e : entries)
            e = Entry{};
        trackers.clear();
        for (CooldownEntry &c : cooldown)
            c = CooldownEntry{};
        cooldownNext = 0;
    }

    /** Monitoring phases currently open (test observability). */
    std::size_t
    liveTrackers() const
    {
        std::size_t n = 0;
        for (const auto &t : trackers)
            n += t.valid;
        return n;
    }

    /** The stat tree of StreamingDetector::regStats. */
    void
    regStats(stats::StatGroup *parent)
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

  private:
    struct Tracker
    {
        bool valid = false;
        std::uint64_t chunk = 0;
        bool predictedStreaming = false;
        bool writeFlag = false;
        std::uint64_t accessMask = 0;
        std::uint32_t accesses = 0;
        Cycle started = 0;
    };

    struct Entry
    {
        bool streaming = true;
        bool everUpdated = false;
        std::uint64_t lastUpdater = 0;
    };

    struct CooldownEntry
    {
        std::uint64_t chunk = 0;
        Cycle until = 0;
    };

    std::size_t indexOf(std::uint64_t chunk) const
    {
        return chunk % config.entries;
    }

    std::uint32_t blocksPerChunk() const
    {
        return static_cast<std::uint32_t>(config.chunkBytes /
                                          config.blockBytes);
    }

    std::uint64_t fullMask() const
    {
        return (blocksPerChunk() >= 64) ? ~0ull
                                        : ((1ull << blocksPerChunk()) - 1);
    }

    void
    finalize(Tracker &t, std::vector<DetectionEvent> &events, Cycle now,
             PhaseExit exit)
    {
        bool streaming = (t.accessMask & fullMask()) == fullMask();

        Entry &e = entries[indexOf(t.chunk)];
        e.streaming = streaming;
        e.everUpdated = true;
        e.lastUpdater = t.chunk;

        events.push_back({t.chunk, streaming, t.predictedStreaming,
                          t.writeFlag, t.accessMask, exit});
        t.valid = false;

        if (exit == PhaseExit::Coverage && !cooldown.empty()) {
            cooldown[cooldownNext] = {t.chunk, now + config.cooldownCycles};
            cooldownNext = (cooldownNext + 1) %
                           static_cast<std::uint32_t>(cooldown.size());
        }
    }

    bool
    inCooldown(std::uint64_t chunk, Cycle now) const
    {
        for (const auto &c : cooldown)
            if (c.until > now && c.chunk == chunk)
                return true;
        return false;
    }

    Tracker *
    findTracker(std::uint64_t chunk)
    {
        for (auto &t : trackers)
            if (t.valid && t.chunk == chunk)
                return &t;
        return nullptr;
    }

    Tracker *
    allocTracker()
    {
        for (auto &t : trackers)
            if (!t.valid)
                return &t;
        trackers.push_back({});
        return &trackers.back();
    }

    Params config;
    std::vector<Entry> entries;
    std::vector<Tracker> trackers;
    std::vector<CooldownEntry> cooldown;
    std::uint32_t cooldownNext = 0;

    stats::StatGroup statGroup;
    stats::Scalar statPhasesStarted;
    stats::Scalar statCoverageExits;
    stats::Scalar statBudgetExits;
    stats::Scalar statTimeoutExits;
    stats::Scalar statCooldownAbsorbed;
    stats::Scalar statNoTrackerFree;
    stats::Scalar statRemonitorSkipped;
};

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_STREAMING_DETECTOR_HH
