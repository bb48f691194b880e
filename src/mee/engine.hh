/**
 * @file
 * Per-partition Memory Encryption Engine (timing path).
 *
 * Implements the paper's adaptive secure-memory pipeline for one GDDR
 * partition (Fig. 6/7): counter-mode encryption with split counters,
 * stateful MACs, BMT freshness, the three 2 KB metadata caches of
 * Table VI, and the two SHM optimizations — the read-only shared
 * counter (Section IV-B) and dual-granularity MACs driven by the
 * streaming detector (Section IV-C), including the Table III/IV
 * misprediction handling and the dual-MAC aliasing remedy.
 *
 * The timing path tracks *which* metadata moves and *when*, not the
 * values: functional encryption/verification lives in
 * mee/functional.hh and shares the same metadata layout and state
 * machines.
 */

#ifndef SHMGPU_MEE_ENGINE_HH
#define SHMGPU_MEE_ENGINE_HH

#include <cstdint>
#include <memory>

#include "common/demand_zero.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "detect/oracle.hh"
#include "detect/readonly.hh"
#include "detect/streaming.hh"
#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/request.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"

namespace shmgpu::mee
{

/** Scheme knobs + structure sizes for one MEE (Table VI / VIII). */
struct MeeParams
{
    /** Master switch: false models the no-security baseline. */
    bool secure = true;
    /** Metadata constructed from partition-local addresses (PSSM);
     *  false = physical addresses (Naive / Common_ctr). */
    bool localMetadataAddressing = true;
    /** 32 B sectored metadata fills; false = full 128 B lines. */
    bool sectoredMetadata = true;
    /** Common-counters compression (Na et al., HPCA'21). */
    bool commonCounters = false;
    /** Shared on-chip counter for read-only regions (SHM). */
    bool readOnlyOpt = false;
    /** Dual-granularity MACs with streaming detection (SHM). */
    bool dualGranularityMac = false;
    /** Allow spilling metadata into the L2 victim cache (SHM_vL2). */
    bool victimL2 = false;
    /**
     * Treat constant/texture/instruction spaces as statically
     * read-only (Table I): no freshness state regardless of the
     * dynamic detector. Sound because those spaces cannot be written
     * from kernels in the programming model.
     */
    bool staticSpaceHints = false;
    /**
     * Honour programming-model read-only declarations (e.g. OpenCL
     * CL_MEM_READ_ONLY buffers): hinted host copies pin their regions
     * read-only in the detector. The paper's evaluation forgoes this
     * support; the ablation bench quantifies what it is worth.
     */
    bool programmingModelHints = false;

    mem::CacheParams counterCache;
    mem::CacheParams macCache;
    mem::CacheParams bmtCache;
    /**
     * Replacement policy applied to all three metadata caches
     * (`mee.mdc_policy`). Kept beside the CacheParams rather than in
     * them so scheme constructors can't diverge the three caches by
     * accident; the engine stamps it into each cache at build time
     * with a per-partition, per-role random seed.
     */
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
    detect::ReadOnlyDetectorParams roDetector;
    detect::StreamingDetectorParams streamDetector;

    /** Pipelined AES latency (Table VI), added to every secure read
     *  miss on its return path; no separate MAC/hash latency is
     *  charged. */
    Cycle aesLatency = 40;
    Cycle mdcHitLatency = 2;

    /**
     * Integrity-tree fan-out (children per 128 B node). The SHM
     * optimizations are independent of the tree implementation
     * (Section II-B); this knob demonstrates it.
     */
    std::uint32_t bmtArity = 16;

    /**
     * Stored MAC width in bytes. The paper's default is 8 B; PSSM
     * truncates to 4 B, which Section III-C argues falls below the
     * birthday bound for a 4 GB device (pinned by
     * MacTruncation.BirthdayBoundMatchesPaper in tests/test_mac.cc).
     */
    std::uint32_t macBytes = 8;

    MeeParams();

    bool operator==(const MeeParams &) const = default;
};

/**
 * Routes metadata DRAM transactions to the owning channel. For local
 * metadata addressing the target is always the MEE's own partition;
 * for physical addressing the metadata address is partition-mapped,
 * which is exactly the cross-partition redundancy PSSM eliminates.
 */
class DramRouter
{
  public:
    virtual ~DramRouter() = default;

    /** Enqueue a metadata transaction; returns its completion cycle. */
    virtual Cycle enqueueMeta(PartitionId target, Addr bank_addr,
                              std::uint32_t bytes, mem::AccessType type,
                              mem::TrafficClass cls, Cycle now) = 0;
};

/** L2-as-victim-cache hooks (Section IV-D), implemented by the L2. */
class VictimCacheIf
{
  public:
    virtual ~VictimCacheIf() = default;

    /** True while the sampled L2 data miss rate enables victim mode. */
    virtual bool victimActive() const = 0;

    /** Look up (and extract) a metadata block; true on hit. */
    virtual bool victimProbe(Addr meta_addr) = 0;

    /** Insert an evicted metadata block; may evict L2 data. */
    virtual void victimInsert(Addr meta_addr, std::uint32_t valid_mask,
                              std::uint32_t dirty_mask,
                              mem::TrafficClass cls, Cycle now) = 0;

    virtual Cycle victimHitLatency() const = 0;
};

/**
 * Per-tenant shadow counters for scenario runs. Incremented beside
 * the engine's regular statistics for whichever tenant is active
 * (setActiveTenant); plain integers because the scenario engine is
 * serial.
 */
struct TenantMeeTally
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t mdcAccesses = 0;
    std::uint64_t mdcHits = 0;
    /** Detector-accuracy attribution (needs a truth profile). */
    std::uint64_t roCorrect = 0;
    std::uint64_t roMispredicts = 0;
    std::uint64_t strCorrect = 0;
    std::uint64_t strMispredicts = 0;
};

/** Per-access prediction-accuracy tallies (Figs. 10 and 11). */
struct PredictionStats
{
    stats::Scalar roCorrect;
    stats::Scalar roMpInit;
    stats::Scalar roMpAliasing;
    stats::Scalar strCorrect;
    stats::Scalar strMpInit;
    stats::Scalar strMpAliasing;
    stats::Scalar strMpRuntimeRo;
    stats::Scalar strMpRuntimeNonRo;
};

/** The per-partition timing MEE. */
class MeeEngine
{
  public:
    /**
     * @param params       scheme configuration
     * @param partition    owning partition id
     * @param layout       metadata layout (per-partition for local
     *                     addressing; the shared global layout for
     *                     physical addressing)
     * @param router       DRAM transaction sink
     * @param victim       L2 victim-cache hooks; may be nullptr
     * @param phys_map     partition mapping, required when
     *                     !localMetadataAddressing
     * @param common_table common-counter table (shared for physical
     *                     addressing); may be nullptr
     */
    MeeEngine(const MeeParams &params, PartitionId partition,
              const meta::MetadataLayout *layout, DramRouter *router,
              VictimCacheIf *victim, const mem::AddressMap *phys_map,
              meta::CommonCounterTable *common_table);

    /**
     * L2 read miss for the data sector at partition-local @p local
     * (physical @p phys). Enqueues all metadata traffic and returns
     * the cycle at which the decryption counter is available; the
     * caller combines it with the data-fetch completion and the AES
     * latency. MAC/BMT verification is off the critical path.
     */
    Cycle onRead(LocalAddr local, Addr phys, Cycle now,
                 MemSpace space = MemSpace::Global);

    /** L2 write-back of the data sector at @p local / @p phys. */
    void onWrite(LocalAddr local, Addr phys, Cycle now,
                 MemSpace space = MemSpace::Global);

    /**
     * Host-to-device copy initialized [base, base+bytes) (local).
     * @p declared_read_only marks an explicit programming-model
     * declaration (honoured when programmingModelHints is on).
     */
    void hostCopy(LocalAddr base, std::uint64_t bytes,
                  bool declared_read_only = false);

    /** Kernel launch boundary. */
    void kernelBoundary(Cycle now);

    /**
     * Tenant context switch: finalize and account the in-flight
     * streaming phases, then drop both detectors back to power-on
     * state (the caller re-arms the incoming tenant's input regions
     * via the InputReadOnlyReset path, i.e. hostCopy). With
     * @p flush_mdc the three metadata caches are invalidated too,
     * their dirty lines written back as DRAM traffic. Returns the
     * number of flush write-backs emitted. chunkMacStates is kept:
     * it mirrors memory-resident MAC freshness, and tenants occupy
     * disjoint address ranges.
     */
    std::uint64_t contextSwitch(Cycle now, bool flush_mdc);

    /** @{ Per-tenant shadow tallies for scenario runs. */
    void enableTenantTallies(std::size_t tenants)
    {
        tenantTallies.assign(tenants, TenantMeeTally{});
    }
    /** Route subsequent accounting to tenant @p id (invalidAddr-like
     *  sentinel: pass tenantTallies.size()==0 state to disable). */
    void setActiveTenant(std::size_t id)
    {
        activeTally = id < tenantTallies.size() ? &tenantTallies[id]
                                                : nullptr;
    }
    const TenantMeeTally &tenantTally(std::size_t id) const
    {
        return tenantTallies.at(id);
    }
    /** @} */

    /** Prime detectors from the Baseline truth (SHM_upper_bound). */
    void primeFromProfile(const detect::TruthProfile &profile);

    /** Attach ground truth for Fig. 10/11 accuracy attribution. */
    void setProfile(const detect::TruthProfile *profile)
    {
        truthProfile = profile;
    }

    Cycle aesLatency() const { return config.aesLatency; }

    /** Attach the flight recorder; the MEE emits on its partition's
     *  lane (lane id == partition id). */
    void setTracer(trace::Tracer *t) { tracer = t; }

    void regStats(stats::StatGroup *parent);

    /** @{ Introspection for tests and harnesses. */
    const detect::ReadOnlyDetector &readOnlyDetector() const
    {
        return roDetector;
    }
    const detect::StreamingDetector &streamingDetector() const
    {
        return streamDetector;
    }
    const mem::SectoredCache &counterCache() const { return ctrCache; }
    const mem::SectoredCache &macCache() const { return macsCache; }
    const mem::SectoredCache &bmtCache() const { return treeCache; }
    const PredictionStats &predictionStats() const { return predStats; }
    double sharedCounterReads() const
    {
        return statSharedCtrReads.value();
    }
    double roTransitions() const { return statRoTransitions.value(); }
    double dualMacFallbacks() const
    {
        return statDualMacFallback.value();
    }
    double chunkMacAccesses() const { return statChunkMacAccesses.value(); }
    double blockMacAccesses() const { return statBlockMacAccesses.value(); }
    double commonCtrHits() const { return statCommonCtrHits.value(); }
    double victimHits() const { return statVictimHits.value(); }
    double victimInserts() const { return statVictimInserts.value(); }
    /** @} */

  private:
    /** Freshness of the two MAC granularities of one chunk; zero
     *  bytes are the initial state (both MACs fresh). */
    struct ChunkMacState
    {
        /** The stored chunk MAC no longer reflects the contents. */
        bool chunkStale = false;
        /** Blocks whose stored block MAC is stale (written while the
         *  chunk was in streaming mode). */
        std::uint64_t staleBlockMask = 0;
    };

    /** Address of the access in the metadata address space. */
    Addr metaSpaceAddr(LocalAddr local, Addr phys) const
    {
        return config.localMetadataAddressing ? local : phys;
    }

    /** Bytes one metadata fetch moves: a 32 B sector when metadata
     *  is sectored, else the whole 128 B line. */
    std::uint32_t metaFetchBytes() const
    {
        return config.sectoredMetadata ? 32u : 128u;
    }

    /** Enqueue one metadata DRAM transaction (routing by scheme). */
    Cycle routeMeta(Addr meta_addr, std::uint32_t bytes,
                    mem::AccessType type, mem::TrafficClass cls,
                    Cycle now);

    /** Emit the write-back of an evicted metadata line. */
    void emitEviction(const mem::Writeback &wb, mem::TrafficClass cls,
                      Cycle now);

    /**
     * Access a metadata cache, fetching on miss (from the L2 victim
     * space or DRAM). Returns the cycle the metadata is available.
     * @p values_known write accesses validate in place (no RMW fetch).
     */
    Cycle metaAccess(mem::SectoredCache &cache, Addr meta_addr,
                     std::uint32_t bytes, bool is_write,
                     mem::TrafficClass cls, Cycle now,
                     bool *was_miss = nullptr);

    /**
     * BMT traversal for the counter block covering @p meta_data_addr
     * (an address in the metadata address space). Walks up until a
     * cached level absorbs the access; @p update dirties the path.
     */
    void traverseBmt(Addr meta_data_addr, bool update, Cycle now);

    /** Shared-counter -> per-block counter propagation (Fig. 8). */
    void propagateSharedCounter(Addr meta_data_addr, Cycle now);

    /** Apply a completed streaming-detection phase (Tables III/IV). */
    void handleDetection(const detect::DetectionEvent &ev, Cycle now);

    /** Per-access prediction-accuracy attribution. */
    void attributeRoPrediction(LocalAddr local, bool predicted_ro);
    void attributeStreamPrediction(LocalAddr local, bool predicted_str);

    /** MAC freshness of @p chunk (dual-granularity schemes only). */
    ChunkMacState &chunkState(std::uint64_t chunk)
    {
        shm_assert(chunk < chunkMacStates.size(),
                   "chunk {} beyond the {} chunks of the data span", chunk,
                   chunkMacStates.size());
        return chunkMacStates[chunk];
    }

    MeeParams config;
    PartitionId partitionId;
    const meta::MetadataLayout *layout;
    DramRouter *router;
    VictimCacheIf *victim;
    const mem::AddressMap *physMap;
    meta::CommonCounterTable *commonTable;
    const detect::TruthProfile *truthProfile = nullptr;
    trace::Tracer *tracer = nullptr;

    mem::SectoredCache ctrCache;
    mem::SectoredCache macsCache;
    mem::SectoredCache treeCache;
    detect::ReadOnlyDetector roDetector;
    detect::StreamingDetector streamDetector;
    std::vector<detect::DetectionEvent> eventScratch;
    /** One entry per chunk of the layout's data span; empty unless
     *  dualGranularityMac. */
    DemandZeroArray<ChunkMacState> chunkMacStates;

    /** Scenario-mode shadow tallies; empty outside scenario runs. */
    std::vector<TenantMeeTally> tenantTallies;
    TenantMeeTally *activeTally = nullptr;

    stats::StatGroup statGroup;
    PredictionStats predStats;
    stats::Scalar statReads;
    stats::Scalar statWrites;
    stats::Scalar statSharedCtrReads;
    stats::Scalar statCommonCtrHits;
    stats::Scalar statRoTransitions;
    stats::Scalar statChunkMacAccesses;
    stats::Scalar statBlockMacAccesses;
    stats::Scalar statDualMacFallback;
    stats::Scalar statBmtTraversals;
    stats::Scalar statBmtNodeFetches;
    stats::Scalar statMispredBytes;
    stats::Scalar statVictimHits;
    stats::Scalar statVictimInserts;
    stats::Scalar statDetectStream;
    stats::Scalar statDetectRandom;
    stats::Scalar statDetectMismatch;
    stats::Scalar statUnconfirmedMacReads;
    stats::Scalar statStaticSpaceReads;
};

} // namespace shmgpu::mee

#endif // SHMGPU_MEE_ENGINE_HH
