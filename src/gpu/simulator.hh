/**
 * @file
 * The top-level trace-driven GPU simulator.
 *
 * Thirty SM request generators execute a workload's kernels (compute
 * instructions at one per cycle, memory instructions as 32 B sector
 * accesses), an interleaved address map routes sectors to twelve
 * memory partitions (two L2 banks + MEE + GDDR channel each), and an
 * outstanding-load window per SM provides latency tolerance. IPC is
 * instructions retired over cycles; every metadata byte contends for
 * the same GDDR channels as the data — the effect the paper measures.
 */

#ifndef SHMGPU_GPU_SIMULATOR_HH
#define SHMGPU_GPU_SIMULATOR_HH

#include <memory>
#include <variant>
#include <vector>

#include "common/calendar_queue.hh"
#include "common/stats.hh"
#include "common/trace.hh"
#include "detect/oracle.hh"
#include "gpu/metrics.hh"
#include "gpu/params.hh"
#include "gpu/interconnect.hh"
#include "gpu/partition.hh"
#include "mee/engine.hh"
#include "mem/addr_map.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"
#include "workload/trace.hh"
#include "workload/trace_file.hh"

namespace shmgpu::test
{
struct ReferenceKernelLoop;
} // namespace shmgpu::test

namespace shmgpu::gpu
{

/**
 * A full GPU + secure-memory simulation of one scenario: N tenant
 * contexts multiplexed over one GPU by the scenario's share policy —
 * time-sliced context switching (per-quantum ownership of every SM and
 * partition, detector state flushed/re-armed at each switch) or
 * MIG-style static SM/partition splits. A single workload or a
 * recorded trace runs as the one-tenant scenario
 * (workload::singleTenantScenario).
 */
class GpuSimulator : public mee::DramRouter
{
  public:
    /** Copies @p scenario; fatal when it is invalid or does not fit
     *  the GPU. */
    GpuSimulator(const GpuParams &gpu_params,
                 const mee::MeeParams &mee_params,
                 const workload::ScenarioSpec &scenario);

    ~GpuSimulator() override;

    /** Collect a ground-truth profile while running (pass 1). */
    void collectProfile(detect::AccessProfile *profile);

    /** Attach truth for Fig. 10/11 misprediction attribution. */
    void attributeAgainst(const detect::TruthProfile *profile);

    /** Prime detectors from a profile (SHM_upper_bound). */
    void primeFromProfile(const detect::TruthProfile &profile);

    /**
     * Attach a flight recorder (see common/trace.hh). The tracer must
     * have numPartitions + 1 lanes: one per partition plus the SM
     * scheduler lane; this call names the lanes. Call before run();
     * pass null to detach.
     */
    void attachTracer(trace::Tracer *t);

    /** Run every tenant's kernels to completion; returns the whole-GPU
     *  totals and the per-tenant attribution. */
    ScenarioMetrics run();

    /** mee::DramRouter: metadata transactions from the MEEs. */
    Cycle enqueueMeta(PartitionId target, Addr bank_addr,
                      std::uint32_t bytes, mem::AccessType type,
                      mem::TrafficClass cls, Cycle now) override;

    stats::StatGroup &statsRoot() { return rootStats; }

  private:
    /** The per-cycle oracle tests/reference_kernel_loop.hh drives
     *  tenant 0 through startTenantKernel()/advanceTenantKernel(). */
    friend struct test::ReferenceKernelLoop;

    struct SmUnit
    {
        workload::TraceOp op;
        /** Partition mapping of op.addr, computed once at op fetch so
         *  window-stall retries do not redo the address math. */
        mem::PartitionAddr pa;
        bool hasOp = false;
        /** Loads issued and not yet retired. Retirement is lazy (see
         *  retireLoads), so between window checks this is an upper
         *  bound on the loads still in flight. */
        std::uint32_t outstanding = 0;
        std::uint64_t instructions = 0;
        std::uint64_t windowStalls = 0;
        /** Completion cycles of the outstanding loads, unordered, in
         *  inflight[0, outstanding); sized to the GPU's window once. */
        std::vector<Cycle> inflight;
    };

    /**
     * One kernel in flight on a slice of the GPU: SMs [smLo, smHi)
     * issuing through addrMap onto the partitions from partLo. Every
     * tenant embeds one, so a kernel can pause at a slice boundary and
     * resume with the same arithmetic.
     */
    struct KernelContext
    {
        /** @{ Resource slice. */
        std::uint32_t smLo = 0, smHi = 0;
        PartitionId partLo = 0;
        const mem::AddressMap *addrMap = nullptr;
        /** @} */

        std::uint32_t window = 0; //!< per-kernel occupancy cap
        Cycle kernelStart = 0;
        Cycle capEnd = 0;        //!< events are only scheduled before it
        Cycle maxCompletion = 0; //!< latest load completion issued
        Cycle lastDrain = 0;     //!< cycle the last SM ran dry
        Cycle cursor = invalidCycle; //!< cycle of the last event
        std::uint64_t busyCycles = 0; //!< distinct event cycles
        std::uint32_t drained = 0;    //!< SMs whose trace is exhausted
        std::uint64_t eventsPending = 0; //!< this kernel's calendar load

        std::uint32_t numSms() const { return smHi - smLo; }
    };

    /**
     * One tenant's execution context in a scenario run. Owns the
     * tenant's address layout, its KernelContext and — in time-sliced
     * mode — the saved SM/calendar state between dispatches.
     */
    struct TenantContext
    {
        enum class State : std::uint8_t
        {
            NotArrived, //!< waiting for arrivalCycle (wake = arrival)
            Running,    //!< mid-kernel (dispatchable any time)
            Draining,   //!< SMs done, loads in flight (wake = kernel end)
            Finished    //!< every kernel retired
        };

        const workload::TenantSpec *spec = nullptr;
        std::uint16_t id = 0;
        std::vector<Addr> bufferBases;

        /** Time-sliced: the whole GPU and the global address map.
         *  Partitioned: contiguous SM/partition ranges and a private
         *  map over the tenant's partitions (kernel.smLo/smHi/partLo
         *  and partHi). */
        KernelContext kernel;
        PartitionId partHi = 0;
        std::unique_ptr<mem::AddressMap> ownedMap;

        State state = State::NotArrived;
        Cycle wake = 0; //!< earliest useful dispatch (NotArrived/Draining)

        /** @{ Current kernel: generated from the workload or replayed
         *  from the trace. */
        std::uint32_t nextKernel = 0;
        std::variant<std::monostate, workload::KernelTrace,
                     workload::TraceReplay>
            source;
        bool kernelActive = false;
        std::uint64_t kernelTraceIdx = 0;
        /** @} */

        /** @{ Saved context between time-sliced dispatches: the SM
         *  units verbatim, calendar events as deltas against the
         *  switch cycle (re-based on resume: progress freezes while
         *  preempted, in-flight completions stay absolute), and the
         *  remaining kernel cycle budget. */
        std::vector<SmUnit> savedSms;
        std::vector<std::pair<Cycle, std::uint32_t>> savedEvents;
        Cycle capLeft = 0;
        /** @} */

        /** Input ranges marked read-only so far, replayed through the
         *  InputReadOnlyReset path at every switch-in. */
        struct ArmedRange
        {
            LocalAddr lo = 0;
            std::uint64_t len = 0;
            bool declared = false;
        };
        std::vector<ArmedRange> armedRanges;

        /** @{ Results. */
        Cycle startCycle = 0;
        Cycle finishCycle = 0;
        std::uint64_t instructions = 0;
        std::uint64_t windowStalls = 0;
        std::uint64_t kernelsRun = 0;
        std::uint64_t dispatches = 0;
        /** MEE counts charged to the tenant (only the MEE fields of
         *  TenantRunMetrics accumulate here; see chargeTenant). */
        TenantRunMetrics share;
        /** @} */

        std::uint32_t numParts() const
        {
            return static_cast<std::uint32_t>(partHi - kernel.partLo);
        }

        std::uint32_t numKernels() const
        {
            return static_cast<std::uint32_t>(
                spec->trace ? spec->trace->kernels.size()
                            : spec->workload.kernels.size());
        }
    };

    /** Call @p f with @p t's current kernel source: the source type is
     *  resolved once per call, never per op. */
    template <typename F>
    static void
    withSource(TenantContext &t, F &&f)
    {
        if (auto *gen = std::get_if<workload::KernelTrace>(&t.source))
            f(*gen);
        else
            f(std::get<workload::TraceReplay>(t.source));
    }

    void init();
    void initScenario();
    /** Host copy over a tenant's partition slice (records the range
     *  for switch-in re-arming when it marks regions read-only). */
    void applyTenantHostCopy(TenantContext &t, Addr base,
                             std::uint64_t bytes, bool declared_read_only);

    /** @{ The kernel engine (simulator.cc) under the scenario engine. */
    /** Start a kernel on @p k's SMs at @p at: reset the units and
     *  schedule each SM's first event. */
    void beginKernel(KernelContext &k, Cycle at, std::uint32_t window);
    /** Account one popped calendar event of @p k's kernel. */
    void noteEvent(KernelContext &k, Cycle now, std::uint32_t sm);
    /** Retire @p u's loads completed by @p now in one compaction pass
     *  over its completion array; return the earliest completion left
     *  (invalidCycle if none). */
    static Cycle retireLoads(SmUnit &u, Cycle now);
    /** One calendar event for one SM: fetch, batch compute, stall or
     *  issue one memory op. */
    template <typename Source>
    void stepSmEvent(KernelContext &k, Source &source, SmId sm,
                     Cycle now);
    /** Pop and step every event before @p limit (all of them belong to
     *  @p k's kernel). */
    template <typename Source>
    void drainCalendar(KernelContext &k, Source &source, Cycle limit);
    /** @p k's events are exhausted: return the cycle its kernel ends
     *  at, with the cap-hit and cycles-skipped bookkeeping. */
    Cycle kernelTail(KernelContext &k);
    /** Trace a kernel launch; returns its kernel index. */
    std::uint64_t openKernel(Cycle at);
    /** Retire a kernel at @p at on partitions [lo, hi). */
    void closeKernel(PartitionId lo, PartitionId hi, Cycle at,
                     std::uint64_t kernel_idx);
    /** @} */

    /** Package one SM memory op as a transaction message. */
    static mem::Transaction makeTxn(const workload::TraceOp &op,
                                    const mem::PartitionAddr &pa,
                                    SmId sm, Cycle now);
    /** The outstanding-load window of a kernel whose spec or trace
     *  asks for @p max_outstanding (0 = the GPU's smWindow). */
    std::uint32_t kernelWindow(std::uint32_t max_outstanding) const;

    /** @{ Scenario engine (scenario_run.cc). */
    void runTimeSliced();
    /** All tenants draw from one Source type (a trace tenant is
     *  alone), so the partitioned loop is instantiated per type. */
    template <typename Source>
    void runPartitioned();
    Cycle runTenantSlice(TenantContext &t, Cycle now, Cycle slice_end);
    void startTenantKernel(TenantContext &t, Cycle at);
    void advanceTenantKernel(TenantContext &t, Cycle at);
    void contextSwitchTo(std::uint32_t pick, Cycle now);
    /** A tenant takes its partitions (@p give_back false) by
     *  subtracting their running MEE counters from its share, and gives
     *  them back by adding them: its share is their change over the
     *  spans it owned them. */
    void chargeTenant(TenantContext &t, bool give_back);
    ScenarioMetrics gatherMetrics() const;
    /** @} */

    GpuParams gpuConfig;
    mee::MeeParams meeConfig;
    workload::ScenarioSpec scenario;

    /** @{ Scenario state. Plain members, not stats scalars, so the
     *  stats tree has the same shape for one tenant or many. */
    std::vector<TenantContext> tenants;
    std::vector<std::uint16_t> tenantOfSm; //!< partitioned-mode lookup
    int activeTenant = -1;
    std::uint64_t scenarioSwitches = 0;
    std::uint64_t scenarioFlushWbs = 0;
    /** @} */

    mem::AddressMap map;
    Interconnect icnt;
    /** Per-partition layout (local addressing) or global (physical). */
    std::unique_ptr<meta::MetadataLayout> layout;
    std::unique_ptr<meta::MetadataLayout> globalLayout;
    /** Common-counter tables: per partition (local) or one shared. */
    std::vector<std::unique_ptr<meta::CommonCounterTable>> commonTables;

    std::vector<std::unique_ptr<Partition>> partitions;
    std::vector<SmUnit> sms;

    /** Ready-cycle calendar of SM events; sized for numSms ids in
     *  init(). */
    CalendarQueue calendar{1};

    /** Flight recorder; null (the default) means tracing is off. The
     *  SM scheduler emits on lane smLane = numPartitions. */
    trace::Tracer *tracer = nullptr;
    std::uint32_t smLane = 0;

    Cycle currentCycle = 0;
    /** Cycles the event engine advanced over without enumerating. */
    std::uint64_t cyclesSkipped = 0;
    detect::AccessProfile *collector = nullptr;
    /** Profile primeFromProfile was last applied from, kept so every
     *  scenario context switch can re-prime the incoming tenant's
     *  partitions after the switch-time detector flush (otherwise
     *  SHM_upper_bound degrades to learned-from-scratch after the
     *  first quantum). Owned by the caller, outlives the run. */
    const detect::TruthProfile *primedProfile = nullptr;

    stats::StatGroup rootStats;
    stats::Scalar statCycles;
    stats::Scalar statInstructions;
    stats::Scalar statWindowStalls;
    stats::Scalar statKernelsRun;
    stats::Scalar statCycleCapHits;
    stats::Scalar statCyclesSkipped;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_SIMULATOR_HH
