#include "mee/engine.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/profile.hh"

namespace shmgpu::mee
{

MeeParams::MeeParams()
{
    // Table VI: 2 KB per metadata cache, 128 B blocks, 4-way,
    // sectored, write-allocate.
    counterCache.name = "counter_cache";
    counterCache.sizeBytes = 2048;
    counterCache.assoc = 4;
    counterCache.writeAllocate = true;
    counterCache.fetchOnWriteMiss = true; // counter increments are RMW

    macCache = counterCache;
    macCache.name = "mac_cache";
    macCache.fetchOnWriteMiss = false; // new MACs are write-validated

    bmtCache = counterCache;
    bmtCache.name = "bmt_cache";
    bmtCache.fetchOnWriteMiss = true; // node updates are RMW
}

namespace
{

/**
 * Stamp the shared MDC policy and the scheme's sector granularity into
 * one metadata cache's params, with a per-partition, per-role
 * random-stream seed (a function of position only, so metadata
 * replacement is identical across sweep job placement).
 */
mem::CacheParams
mdcParams(mem::CacheParams cp, const MeeParams &params,
              PartitionId partition, std::uint64_t role)
{
    cp.policy = params.mdcPolicy;
    cp.fetchWholeBlock = !params.sectoredMetadata;
    cp.policySeed ^= (static_cast<std::uint64_t>(partition) * 4 + role + 1) *
                     0xD6E8FEB86659FD93ull;
    return cp;
}

/** Entries of the chunk-MAC freshness array: one per chunk of the
 *  layout's data span, none without dual-granularity MACs. */
std::size_t
chunkMacEntries(const MeeParams &params, const meta::MetadataLayout *layout)
{
    if (!params.dualGranularityMac || !layout)
        return 0;
    return divCeil(layout->params().dataBytes,
                   params.streamDetector.chunkBytes);
}

} // namespace

MeeEngine::MeeEngine(const MeeParams &params, PartitionId partition,
                     const meta::MetadataLayout *meta_layout,
                     DramRouter *dram_router, VictimCacheIf *victim_if,
                     const mem::AddressMap *phys_map,
                     meta::CommonCounterTable *common_table)
    : config(params), partitionId(partition), layout(meta_layout),
      router(dram_router), victim(victim_if), physMap(phys_map),
      commonTable(common_table),
      ctrCache(mdcParams(params.counterCache, params, partition, 0)),
      macsCache(mdcParams(params.macCache, params, partition, 1)),
      treeCache(mdcParams(params.bmtCache, params, partition, 2)),
      roDetector(params.roDetector), streamDetector(params.streamDetector),
      chunkMacStates(chunkMacEntries(params, meta_layout))
{
    shm_assert(layout != nullptr, "MEE needs a metadata layout");
    shm_assert(router != nullptr, "MEE needs a DRAM router");
    shm_assert(config.localMetadataAddressing || physMap != nullptr,
               "physical metadata addressing needs the partition map");
    shm_assert(!config.readOnlyOpt || config.localMetadataAddressing,
               "the SHM read-only optimization assumes PSSM-style "
               "local metadata addressing");
    shm_assert(!config.commonCounters || commonTable != nullptr,
               "common-counter schemes need a table");
}

namespace
{

/** Trace event kind for a metadata fetch of traffic class @p cls. */
trace::EventKind
fetchKindFor(mem::TrafficClass cls)
{
    switch (cls) {
      case mem::TrafficClass::Counter: return trace::EventKind::CtrFetch;
      case mem::TrafficClass::Mac: return trace::EventKind::MacFetch;
      case mem::TrafficClass::Bmt: return trace::EventKind::BmtFetch;
      default: return trace::EventKind::ExtraFetch;
    }
}

} // namespace

Cycle
MeeEngine::routeMeta(Addr meta_addr, std::uint32_t bytes,
                     mem::AccessType type, mem::TrafficClass cls,
                     Cycle now)
{
    if (config.localMetadataAddressing)
        return router->enqueueMeta(partitionId, meta_addr, bytes, type,
                                   cls, now);
    mem::PartitionAddr pa = physMap->toLocal(meta_addr);
    return router->enqueueMeta(pa.partition, pa.local, bytes, type, cls,
                               now);
}

void
MeeEngine::emitEviction(const mem::Writeback &wb, mem::TrafficClass cls,
                        Cycle now)
{
    if (!wb.valid)
        return;

    // Lazy BMT propagation: when a dirty counter line or BMT node
    // leaves the chip, its parent entry must absorb the new hash
    // (RMW in the BMT cache; recursion is bounded by the tree height).
    const unsigned arity = layout->params().bmtArity;
    if (cls == mem::TrafficClass::Counter &&
        layout->isCounterAddr(wb.blockAddr)) {
        std::uint64_t leaf =
            layout->counterBlockOfCounterAddr(wb.blockAddr);
        Addr parent = layout->bmtNodeAddr(0, leaf / arity) +
                      (leaf % arity) * 8;
        metaAccess(treeCache, parent, 8, true, mem::TrafficClass::Bmt,
                   now);
    } else if (cls == mem::TrafficClass::Bmt) {
        meta::MetadataLayout::BmtNodeId node =
            layout->bmtNodeOf(wb.blockAddr);
        if (node.valid && node.level + 1 < layout->bmtLevels()) {
            Addr parent = layout->bmtNodeAddr(node.level + 1,
                                              node.index / arity) +
                          (node.index % arity) * 8;
            metaAccess(treeCache, parent, 8, true,
                       mem::TrafficClass::Bmt, now);
        }
        // Top-level evictions are absorbed by the on-chip root.
    }
    if (victim && config.victimL2 && victim->victimActive()) {
        ++statVictimInserts;
        victim->victimInsert(wb.blockAddr, wb.dirtyMask, wb.dirtyMask,
                             cls, now);
        return;
    }
    std::uint32_t bytes =
        config.sectoredMetadata
            ? static_cast<std::uint32_t>(std::popcount(wb.dirtyMask)) * 32u
            : 128u;
    routeMeta(wb.blockAddr, bytes, mem::AccessType::Write, cls, now);
}

Cycle
MeeEngine::metaAccess(mem::SectoredCache &cache, Addr meta_addr,
                      std::uint32_t bytes, bool is_write,
                      mem::TrafficClass cls, Cycle now, bool *was_miss)
{
    if (was_miss)
        *was_miss = false;
    if (activeTally)
        ++activeTally->mdcAccesses;

    mem::CacheAccessResult res = cache.access(meta_addr, bytes, is_write);
    if (res.outcome != mem::CacheOutcome::Miss) {
        if (activeTally)
            ++activeTally->mdcHits;
        emitEviction(res.writeback, cls, now);
        return now + config.mdcHitLatency;
    }

    if (was_miss)
        *was_miss = true;

    // The fetch goes out before the victim's write-back (which may
    // recurse into the BMT cache): DRAM sees them in that order.
    Cycle ready;
    if (victim && config.victimL2 && victim->victimActive() &&
        victim->victimProbe(meta_addr)) {
        ++statVictimHits;
        if (tracer)
            tracer->record(partitionId, trace::EventKind::VictimHit, now,
                           static_cast<std::uint16_t>(partitionId),
                           meta_addr);
        ready = now + victim->victimHitLatency();
    } else {
        std::uint32_t fetch_bytes =
            static_cast<std::uint32_t>(std::popcount(res.fetchMask)) * 32u;
        if (tracer)
            tracer->record(partitionId, fetchKindFor(cls), now,
                           static_cast<std::uint16_t>(partitionId),
                           meta_addr);
        ready = routeMeta(meta_addr, fetch_bytes, mem::AccessType::Read,
                          cls, now);
    }
    emitEviction(res.writeback, cls, now);
    return ready;
}

void
MeeEngine::traverseBmt(Addr meta_data_addr, bool update, Cycle now)
{
    ++statBmtTraversals;
    const unsigned arity = layout->params().bmtArity;
    std::uint64_t child = layout->counterBlockIndex(meta_data_addr);

    if (update) {
        // Lazy propagation: a write only dirties the counter's leaf
        // entry; ancestors are updated when dirty nodes are evicted
        // (see emitEviction), which is also when they leave the chip.
        Addr entry = layout->bmtNodeAddr(0, child / arity) +
                     (child % arity) * 8;
        metaAccess(treeCache, entry, 8, true, mem::TrafficClass::Bmt,
                   now);
        return;
    }

    for (unsigned level = 0; level < layout->bmtLevels(); ++level) {
        std::uint64_t node = child / arity;
        Addr entry = layout->bmtNodeAddr(level, node) +
                     (child % arity) * 8;
        bool miss = false;
        metaAccess(treeCache, entry, 8, false, mem::TrafficClass::Bmt,
                   now, &miss);
        if (!miss) {
            // A cached ancestor vouches for (or absorbs the update of)
            // everything below it: stop the walk.
            return;
        }
        ++statBmtNodeFetches;
        child = node;
    }
    // Fell off the stored levels: the on-chip root finishes the walk.
}

void
MeeEngine::propagateSharedCounter(Addr meta_data_addr, Cycle now)
{
    // Fig. 8: the whole predictor region's counter blocks are written
    // directly into the counter cache (values derived from the shared
    // counter, so no fetch), and the BMT grows to cover them.
    std::uint64_t region_bytes = config.roDetector.regionBytes;
    std::uint64_t cover_bytes =
        static_cast<std::uint64_t>(layout->params().blocksPerCounterBlock) *
        layout->params().blockBytes;
    Addr region_base = meta_data_addr / region_bytes * region_bytes;
    Addr end = std::min<Addr>(region_base + region_bytes,
                              layout->params().dataBytes);

    std::uint32_t all_sectors = 0xFu;
    for (Addr a = region_base; a < end; a += cover_bytes) {
        Addr ctr = layout->counterAddr(a);
        emitEviction(ctrCache.insert(ctr, all_sectors, all_sectors),
                     mem::TrafficClass::Counter, now);
        traverseBmt(a, true, now);
    }
}

void
MeeEngine::handleDetection(const detect::DetectionEvent &ev, Cycle now)
{
    std::uint64_t chunk_bytes = config.streamDetector.chunkBytes;
    Addr chunk_base = ev.chunk * chunk_bytes;
    ChunkMacState &st = chunkState(ev.chunk);
    bool ro = config.readOnlyOpt && roDetector.isReadOnly(chunk_base);

    if (tracer) {
        tracer->record(partitionId, trace::EventKind::StreamClassify, now,
                       static_cast<std::uint16_t>(partitionId),
                       ev.chunk |
                           (ev.detectedStreaming ? 1ull << 63 : 0) |
                           (ev.predictedStreaming ? 1ull << 62 : 0) |
                           (ev.sawWrite ? 1ull << 61 : 0));
        if (ev.exit == detect::PhaseExit::Timeout)
            tracer->record(partitionId, trace::EventKind::TrackerTimeout,
                           now, static_cast<std::uint16_t>(partitionId),
                           ev.chunk);
    }

    if (ev.detectedStreaming)
        ++statDetectStream;
    else
        ++statDetectRandom;
    if (ev.detectedStreaming != ev.predictedStreaming)
        ++statDetectMismatch;

    if (ev.detectedStreaming == ev.predictedStreaming) {
        if (ev.detectedStreaming && ev.sawWrite) {
            // Write stream confirmed: re-produce and update the
            // chunk-level MAC (Table IV, first row).
            metaAccess(macsCache, layout->chunkMacAddr(chunk_base), 8,
                       true, mem::TrafficClass::Mac, now);
            st.chunkStale = false;
        }
        return;
    }

    if (ev.predictedStreaming && !ev.detectedStreaming) {
        // Stream mispredicted; chunk is actually random.
        if (ro && !ev.sawWrite) {
            // Table III row 2: the per-block MACs are up to date in
            // memory (read-only region); re-fetch them to verify.
            std::uint64_t mac_bytes =
                (chunk_bytes / layout->params().blockBytes) *
                layout->params().macBytes;
            statMispredBytes += static_cast<double>(mac_bytes);
            routeMeta(layout->blockMacAddr(chunk_base),
                      static_cast<std::uint32_t>(mac_bytes),
                      mem::AccessType::Read, mem::TrafficClass::Extra,
                      now);
        } else if (ev.sawWrite) {
            // Table IV row 2: the blocks written under the streaming
            // assumption (the MAT's touched set) have stale stored
            // block MACs; re-fetch them and produce their block MACs.
            std::uint32_t blocks = static_cast<std::uint32_t>(
                std::popcount(ev.accessMask | st.staleBlockMask));
            std::uint32_t bytes = blocks * layout->params().blockBytes;
            if (bytes > 0) {
                statMispredBytes += static_cast<double>(bytes);
                routeMeta(chunk_base, bytes, mem::AccessType::Read,
                          mem::TrafficClass::Extra, now);
            }
            st.staleBlockMask = 0; // block MACs rebuilt
            st.chunkStale = true;
        } else {
            // Table III row 3: re-fetch the data blocks of the chunk
            // to (re)produce the per-block MACs. Only blocks whose
            // stored block MAC is actually stale (written under the
            // streaming assumption) need the refetch; on the first
            // transition after a write stream that is the whole chunk,
            // matching the paper's worst case.
            std::uint32_t blocks = static_cast<std::uint32_t>(
                std::popcount(st.staleBlockMask));
            std::uint32_t bytes = blocks * layout->params().blockBytes;
            if (bytes > 0) {
                statMispredBytes += static_cast<double>(bytes);
                routeMeta(chunk_base, bytes, mem::AccessType::Read,
                          mem::TrafficClass::Extra, now);
            }
            st.staleBlockMask = 0; // block MACs rebuilt
            st.chunkStale = true;
        }
    } else {
        // Random mispredicted; chunk is actually streaming.
        if (ev.sawWrite) {
            // Table IV row 4: all block MACs are in the MAC cache;
            // produce and update the chunk MAC. No refetch.
            metaAccess(macsCache, layout->chunkMacAddr(chunk_base), 8,
                       true, mem::TrafficClass::Mac, now);
            st.chunkStale = false;
        } else if (!ro) {
            // Table III row 6: re-fetch and re-produce the chunk MAC.
            statMispredBytes += 32.0;
            routeMeta(layout->chunkMacAddr(chunk_base), 32,
                      mem::AccessType::Read, mem::TrafficClass::Extra,
                      now);
            st.chunkStale = false;
        }
        // Table III row 5 (read-only): zero overhead.
    }
}

void
MeeEngine::attributeRoPrediction(LocalAddr local, bool predicted_ro)
{
    if (!truthProfile)
        return;
    bool truth = truthProfile->regionReadOnly(partitionId, local);
    if (predicted_ro == truth) {
        ++predStats.roCorrect;
        if (activeTally)
            ++activeTally->roCorrect;
        return;
    }
    if (activeTally)
        ++activeTally->roMispredicts;
    switch (roDetector.causeFor(local)) {
      case detect::NotReadOnlyCause::WrittenAlias:
        ++predStats.roMpAliasing;
        break;
      default:
        // Never-marked inputs and early transitional state are both
        // initialization artifacts (Fig. 10 'MP_Init').
        ++predStats.roMpInit;
        break;
    }
}

void
MeeEngine::attributeStreamPrediction(LocalAddr local, bool predicted_str)
{
    if (!truthProfile)
        return;
    bool truth = truthProfile->chunkStreaming(partitionId, local);
    if (predicted_str == truth) {
        ++predStats.strCorrect;
        if (activeTally)
            ++activeTally->strCorrect;
        return;
    }
    if (activeTally)
        ++activeTally->strMispredicts;
    std::uint64_t chunk = streamDetector.chunkOf(local);
    if (streamDetector.entryNeverUpdated(chunk)) {
        ++predStats.strMpInit;
    } else if (streamDetector.entryLastUpdater(chunk) != chunk) {
        ++predStats.strMpAliasing;
    } else if (truthProfile->regionReadOnly(partitionId, local)) {
        ++predStats.strMpRuntimeRo;
    } else {
        ++predStats.strMpRuntimeNonRo;
    }
}

Cycle
MeeEngine::onRead(LocalAddr local, Addr phys, Cycle now, MemSpace space)
{
    profile::ScopedTimer timer(profile::Phase::MetaPath);
    ++statReads;
    if (activeTally)
        ++activeTally->reads;
    if (!config.secure)
        return now;

    Addr key = metaSpaceAddr(local, phys);

    // Table I: constant/texture/instruction memory is architecturally
    // read-only during kernel execution, so with static hints it is
    // served by the shared counter without consulting the detector.
    bool static_ro =
        config.staticSpaceHints && config.readOnlyOpt &&
        !requiredGuarantees(space, false).freshness;

    if (config.dualGranularityMac) {
        streamDetector.access(local, false, now, eventScratch);
        for (const auto &ev : eventScratch)
            handleDetection(ev, now);
        eventScratch.clear();
    }
    if (config.readOnlyOpt)
        attributeRoPrediction(local, roDetector.isReadOnly(local));
    if (config.dualGranularityMac)
        attributeStreamPrediction(local,
                                  streamDetector.predictStreaming(local));

    // --- Counter (on the critical path: decryption needs the seed) ---
    Cycle ctr_ready = now;
    bool ro = static_ro ||
              (config.readOnlyOpt && roDetector.isReadOnly(local));
    if (static_ro)
        ++statStaticSpaceReads;
    if (ro) {
        ++statSharedCtrReads;
    } else if (config.commonCounters && commonTable->isCommon(key)) {
        ++statCommonCtrHits;
    } else {
        Addr ctr_entry = layout->counterAddr(key);
        if (config.sectoredMetadata)
            ctr_entry += (layout->minorSlot(key) / 16) * 32;
        bool miss = false;
        ctr_ready = metaAccess(ctrCache, ctr_entry, metaFetchBytes(),
                               false, mem::TrafficClass::Counter, now,
                               &miss);
        if (miss) {
            // Counters fetched from DRAM must be verified against the
            // integrity tree (off the critical path).
            traverseBmt(key, false, now);
        }
    }

    // --- MAC (off the critical path; exception on failure) ---
    // The chunk-level MAC is only usable when the streaming prediction
    // is verifiable — a MAT is monitoring the chunk, it just completed
    // a full-coverage phase, or a past detection of this very chunk
    // set the predictor bit. Otherwise verification could never
    // complete, so the engine falls back to the block MAC (see
    // confirmedStreaming()).
    bool predicted = config.dualGranularityMac &&
                     streamDetector.predictStreaming(local);
    bool use_chunk =
        predicted && streamDetector.confirmedStreaming(local, now);
    if (predicted && !use_chunk)
        ++statUnconfirmedMacReads;
    Addr mac_addr = use_chunk ? layout->chunkMacAddr(key)
                              : layout->blockMacAddr(key);
    metaAccess(macsCache, mac_addr, layout->params().macBytes, false,
               mem::TrafficClass::Mac, now);
    if (use_chunk)
        ++statChunkMacAccesses;
    else
        ++statBlockMacAccesses;

    if (config.dualGranularityMac) {
        // Dual-MAC aliasing remedy #2 (Section IV-C): if the fetched
        // granularity is stale, verification fails and the other MAC
        // is checked.
        ChunkMacState &st = chunkState(streamDetector.chunkOf(local));
        std::uint64_t block_bit =
            1ull << ((local % config.streamDetector.chunkBytes) /
                     layout->params().blockBytes);
        bool fresh = use_chunk ? !st.chunkStale
                               : !(st.staleBlockMask & block_bit);
        if (!fresh) {
            ++statDualMacFallback;
            Addr other = use_chunk ? layout->blockMacAddr(key)
                                   : layout->chunkMacAddr(key);
            metaAccess(macsCache, other, 8, false,
                       mem::TrafficClass::Extra, now);
        }
    }

    return ctr_ready;
}

void
MeeEngine::onWrite(LocalAddr local, Addr phys, Cycle now, MemSpace space)
{
    (void)space; // writes to static read-only spaces cannot happen

    profile::ScopedTimer timer(profile::Phase::MetaPath);
    ++statWrites;
    if (activeTally)
        ++activeTally->writes;
    if (!config.secure)
        return;

    Addr key = metaSpaceAddr(local, phys);

    if (config.dualGranularityMac) {
        streamDetector.access(local, true, now, eventScratch);
        for (const auto &ev : eventScratch)
            handleDetection(ev, now);
        eventScratch.clear();
    }
    if (config.readOnlyOpt)
        attributeRoPrediction(local, roDetector.isReadOnly(local));
    if (config.dualGranularityMac)
        attributeStreamPrediction(local,
                                  streamDetector.predictStreaming(local));

    // --- Read-only -> not-read-only transition (Fig. 8) ---
    if (config.readOnlyOpt && roDetector.recordWrite(local)) {
        ++statRoTransitions;
        if (tracer)
            tracer->record(partitionId, trace::EventKind::RoTransition,
                           now, static_cast<std::uint16_t>(partitionId),
                           local);
        propagateSharedCounter(local, now);
    }

    // --- Counter increment ---
    // A write always persists its counter, even under common counters
    // (the write devolves its region to per-block state).
    if (config.commonCounters)
        commonTable->recordWrite(key);
    Addr ctr_entry = layout->counterAddr(key);
    if (config.sectoredMetadata)
        ctr_entry += (layout->minorSlot(key) / 16) * 32;
    metaAccess(ctrCache, ctr_entry, metaFetchBytes(), true,
               mem::TrafficClass::Counter, now);
    // The BMT leaf update is deferred until the dirty counter line is
    // evicted (lazy propagation, see emitEviction).

    // --- MAC production ---
    bool use_chunk = config.dualGranularityMac &&
                     streamDetector.predictStreaming(local) &&
                     streamDetector.confirmedStreaming(local, now);
    if (use_chunk) {
        // The block MAC is produced into the MAC cache but marked not
        // dirty; the chunk MAC carries the persistent state.
        metaAccess(macsCache, layout->chunkMacAddr(key),
                   layout->params().macBytes, true,
                   mem::TrafficClass::Mac, now);
        ++statChunkMacAccesses;
    } else {
        metaAccess(macsCache, layout->blockMacAddr(key),
                   layout->params().macBytes, true,
                   mem::TrafficClass::Mac, now);
        ++statBlockMacAccesses;
    }
    if (config.dualGranularityMac) {
        ChunkMacState &st = chunkState(streamDetector.chunkOf(local));
        std::uint64_t block_bit =
            1ull << ((local % config.streamDetector.chunkBytes) /
                     layout->params().blockBytes);
        if (use_chunk)
            st.staleBlockMask |= block_bit;
        else
            st.staleBlockMask &= ~block_bit;
        st.chunkStale = !use_chunk;
    }
}

void
MeeEngine::hostCopy(LocalAddr base, std::uint64_t bytes,
                    bool declared_read_only)
{
    if (!config.secure)
        return;
    if (config.readOnlyOpt) {
        roDetector.markInputRegion(base, bytes);
        if (declared_read_only && config.programmingModelHints)
            roDetector.pinReadOnly(base, bytes);
    }
    // The shared-counter raise (Fig. 9) is an on-chip register update;
    // the counter-region scan is documented as negligible bandwidth.
}

void
MeeEngine::kernelBoundary(Cycle now)
{
    if (!config.secure)
        return;
    if (config.dualGranularityMac) {
        streamDetector.finalizeAll(now, eventScratch);
        for (const auto &ev : eventScratch)
            handleDetection(ev, now);
        eventScratch.clear();
    }
}

std::uint64_t
MeeEngine::contextSwitch(Cycle now, bool flush_mdc)
{
    if (!config.secure)
        return 0;
    // Account the outgoing tenant's in-flight monitoring phases with
    // the usual Table III/IV costs before discarding tracker state —
    // detector state must not survive into the next tenant, but the
    // bandwidth its predictions committed to already happened.
    if (config.dualGranularityMac) {
        streamDetector.finalizeAll(now, eventScratch);
        for (const auto &ev : eventScratch)
            handleDetection(ev, now);
        eventScratch.clear();
        streamDetector.reset();
    }
    if (config.readOnlyOpt)
        roDetector.reset();

    std::uint64_t flushed = 0;
    if (flush_mdc) {
        // Dirty metadata leaves the chip as ordinary DRAM traffic.
        // The flush is a plain write-back sweep: BMT ancestors are
        // not lazily updated here the way single-line evictions do
        // it, because every node (parents included) is flushed in
        // the same sweep.
        struct FlushTarget
        {
            mem::SectoredCache *cache;
            mem::TrafficClass cls;
        };
        const FlushTarget targets[] = {
            {&ctrCache, mem::TrafficClass::Counter},
            {&macsCache, mem::TrafficClass::Mac},
            {&treeCache, mem::TrafficClass::Bmt},
        };
        std::vector<mem::Writeback> wbs;
        for (const FlushTarget &t : targets) {
            wbs.clear();
            t.cache->invalidateAll(wbs);
            for (const mem::Writeback &wb : wbs) {
                std::uint32_t bytes =
                    config.sectoredMetadata
                        ? static_cast<std::uint32_t>(
                              std::popcount(wb.dirtyMask)) * 32u
                        : 128u;
                routeMeta(wb.blockAddr, bytes, mem::AccessType::Write,
                          t.cls, now);
                ++flushed;
            }
        }
    }
    return flushed;
}

void
MeeEngine::primeFromProfile(const detect::TruthProfile &profile)
{
    profile.forEachChunk(partitionId,
                         [this](std::uint64_t chunk, bool streaming) {
                             streamDetector.primePrediction(chunk,
                                                            streaming);
                         });
    // The upper bound also starts with perfect read-only knowledge:
    // regions that are written during the run begin as not-read-only;
    // everything else is marked read-only up front.
    if (config.readOnlyOpt) {
        roDetector.markInputRegion(0, layout->params().dataBytes);
        profile.forEachWrittenRegion(
            partitionId, [this](std::uint64_t region) {
                roDetector.recordWrite(region *
                                       config.roDetector.regionBytes);
            });
    }
}

void
MeeEngine::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, "mee");
    statGroup.addScalar("reads", &statReads, "L2 read misses seen");
    statGroup.addScalar("writes", &statWrites, "L2 write-backs seen");
    statGroup.addScalar("shared_ctr_reads", &statSharedCtrReads,
                        "reads served by the on-chip shared counter");
    statGroup.addScalar("common_ctr_hits", &statCommonCtrHits,
                        "accesses covered by common counters");
    statGroup.addScalar("ro_transitions", &statRoTransitions,
                        "read-only -> not-read-only transitions");
    statGroup.addScalar("chunk_mac_accesses", &statChunkMacAccesses,
                        "accesses using the chunk-level MAC");
    statGroup.addScalar("block_mac_accesses", &statBlockMacAccesses,
                        "accesses using the block-level MAC");
    statGroup.addScalar("dual_mac_fallbacks", &statDualMacFallback,
                        "stale-MAC fallbacks to the other granularity");
    statGroup.addScalar("bmt_traversals", &statBmtTraversals,
                        "BMT walks started");
    statGroup.addScalar("bmt_node_fetches", &statBmtNodeFetches,
                        "BMT nodes fetched from DRAM");
    statGroup.addScalar("mispred_bytes", &statMispredBytes,
                        "bytes refetched due to mispredictions");
    statGroup.addScalar("unconfirmed_mac_reads", &statUnconfirmedMacReads,
                        "block-MAC checks for unconfirmed stream "
                        "predictions");
    statGroup.addScalar("static_space_reads", &statStaticSpaceReads,
                        "reads served read-only by space hints");
    statGroup.addScalar("detect_stream", &statDetectStream,
                        "monitoring phases classified streaming");
    statGroup.addScalar("detect_random", &statDetectRandom,
                        "monitoring phases classified random");
    statGroup.addScalar("detect_mismatch", &statDetectMismatch,
                        "phases disagreeing with the prediction");
    statGroup.addScalar("victim_hits", &statVictimHits,
                        "metadata misses served by the L2 victim space");
    statGroup.addScalar("victim_inserts", &statVictimInserts,
                        "metadata evictions absorbed by the L2");
    statGroup.addScalar("pred_ro_correct", &predStats.roCorrect, "");
    statGroup.addScalar("pred_ro_mp_init", &predStats.roMpInit, "");
    statGroup.addScalar("pred_ro_mp_aliasing", &predStats.roMpAliasing,
                        "");
    statGroup.addScalar("pred_str_correct", &predStats.strCorrect, "");
    statGroup.addScalar("pred_str_mp_init", &predStats.strMpInit, "");
    statGroup.addScalar("pred_str_mp_aliasing", &predStats.strMpAliasing,
                        "");
    statGroup.addScalar("pred_str_mp_runtime_ro", &predStats.strMpRuntimeRo,
                        "");
    statGroup.addScalar("pred_str_mp_runtime_non_ro",
                        &predStats.strMpRuntimeNonRo, "");

    ctrCache.regStats(&statGroup);
    macsCache.regStats(&statGroup);
    treeCache.regStats(&statGroup);
    streamDetector.regStats(&statGroup);
}

} // namespace shmgpu::mee
