/**
 * @file
 * Low-overhead structured event tracer — the simulator's flight
 * recorder.
 *
 * Components that can emit events hold a `Tracer *` that is null when
 * tracing is off, so the fast path is one predictable branch and the
 * instrumented build costs nothing in normal runs. When tracing is on,
 * each emission is a class-mask test plus an append to a per-lane
 * vector: one lane per memory partition plus one lane for the SM
 * scheduler. Every producer runs on the simulation thread.
 *
 * Export: lane-major concatenation followed by a stable sort on cycle,
 * so the exported stream is deterministic for a given run.
 */

#ifndef SHMGPU_COMMON_TRACE_HH
#define SHMGPU_COMMON_TRACE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace shmgpu::trace
{

/** What happened. Keep kindName() and classOf() in sync. */
enum class EventKind : std::uint8_t
{
    KernelBegin,    //!< Sm: kernel dispatch (payload = kernel index)
    KernelEnd,      //!< Sm: kernel retired (payload = kernel index)
    SmIssue,        //!< Sm: memory op issued (payload = addr|is_write<<63)
    SmRetire,       //!< Sm: instruction batch retired (payload = count)
    TxnEnqueue,     //!< Txn: transaction entered the interconnect
    TxnDequeue,     //!< Txn: transaction began service at its partition
    CalendarSkip,   //!< Engine: idle cycles skipped (payload = count)
    L2Hit,          //!< L2: data access hit (payload = local addr)
    L2Miss,         //!< L2: data access missed (payload = local addr)
    VictimFill,     //!< L2: line installed in the victim cache
    CtrFetch,       //!< Mee: counter block fetched (payload = meta addr)
    MacFetch,       //!< Mee: MAC block fetched (payload = meta addr)
    BmtFetch,       //!< Mee: BMT node fetched (payload = meta addr)
    ExtraFetch,     //!< Mee: misprediction extra fetch (payload = meta addr)
    VictimHit,      //!< Mee: metadata served by the victim cache
    RoTransition,   //!< Detect: read-only region first written
    StreamClassify, //!< Detect: monitoring phase classified a chunk
    TrackerTimeout, //!< Detect: monitoring phase timed out
    NumKinds
};

/** Filterable event families (one bit each in TraceParams::classMask). */
enum class EventClass : std::uint8_t
{
    Sm,     //!< SM issue/retire and kernel boundaries
    Txn,    //!< interconnect transactions
    Engine, //!< engine internals: calendar skips
    L2,     //!< L2 data-side hits/misses/victim fills
    Mee,    //!< MEE metadata traffic
    Detect, //!< detector transitions
    NumClasses
};

constexpr std::uint32_t
classBit(EventClass c)
{
    return std::uint32_t{1} << static_cast<unsigned>(c);
}

constexpr std::uint32_t allClassesMask =
    (std::uint32_t{1} << static_cast<unsigned>(EventClass::NumClasses)) - 1;

constexpr EventClass
classOf(EventKind kind)
{
    constexpr std::array<EventClass,
                         static_cast<std::size_t>(EventKind::NumKinds)>
        table{
            EventClass::Sm,     // KernelBegin
            EventClass::Sm,     // KernelEnd
            EventClass::Sm,     // SmIssue
            EventClass::Sm,     // SmRetire
            EventClass::Txn,    // TxnEnqueue
            EventClass::Txn,    // TxnDequeue
            EventClass::Engine, // CalendarSkip
            EventClass::L2,     // L2Hit
            EventClass::L2,     // L2Miss
            EventClass::L2,     // VictimFill
            EventClass::Mee,    // CtrFetch
            EventClass::Mee,    // MacFetch
            EventClass::Mee,    // BmtFetch
            EventClass::Mee,    // ExtraFetch
            EventClass::Mee,    // VictimHit
            EventClass::Detect, // RoTransition
            EventClass::Detect, // StreamClassify
            EventClass::Detect, // TrackerTimeout
        };
    return table[static_cast<std::size_t>(kind)];
}

const char *kindName(EventKind kind);
const char *className(EventClass cls);

/**
 * Parse a comma-separated class list ("sm,l2,detect", or "all") into
 * a class mask. Fatal on an unknown class name (user configuration
 * error), prefixed with @p where when given.
 */
std::uint32_t parseClassMask(const std::string &csv,
                             const std::string &where = "");

/** One recorded event. Compact: still 24 bytes — the tenant id lives
 *  in what used to be struct padding. */
struct Event
{
    Cycle cycle = 0;
    std::uint64_t payload = 0;
    std::uint16_t component = 0; //!< SM id or partition id
    EventKind kind = EventKind::KernelBegin;
    /** Owning tenant in scenario runs; 0 for single-workload runs. */
    std::uint16_t tenant = 0;
};

/** User-facing tracer configuration (trace.* config keys). */
struct TraceParams
{
    std::uint32_t classMask = allClassesMask;
};

/** A multi-lane event recorder (see the file comment). */
class Tracer
{
  public:
    Tracer(std::uint32_t num_lanes, const TraceParams &params);

    std::uint32_t numLanes() const
    {
        return static_cast<std::uint32_t>(lanes.size());
    }

    const TraceParams &params() const { return config; }

    /** Display name for the exported thread metadata. */
    void setLaneName(std::uint32_t lane, std::string name);

    /**
     * Stamp subsequent events with tenant @p id (scenario runs set it
     * at every context switch / tenant dispatch).
     */
    void setActiveTenant(std::uint16_t id) { activeTenant = id; }

    /** Record one event on @p lane. */
    void
    record(std::uint32_t lane, EventKind kind, Cycle cycle,
           std::uint16_t component, std::uint64_t payload)
    {
        if (!(config.classMask & classBit(classOf(kind))))
            return;
        lanes[lane].events.push_back(
            {cycle, payload, component, kind, activeTenant});
    }

    /**
     * All events, lane-major then stable-sorted by cycle — the
     * deterministic export order.
     */
    std::vector<Event> collectSorted() const;

    /** Chrome trace_event JSON (chrome://tracing / Perfetto). */
    void writeChromeJson(std::ostream &os) const;

    /** Deterministic line-per-event text dump. */
    void writeText(std::ostream &os) const;

  private:
    struct Lane
    {
        std::vector<Event> events;
        std::string name;
    };

    TraceParams config;
    std::vector<Lane> lanes;
    std::uint16_t activeTenant = 0;
};

/**
 * Write @p tracer's Chrome trace_event JSON to @p chrome_path and its
 * text dump to @p text_path, skipping an empty path. Fatal, naming the
 * path, when a file cannot be opened.
 */
void exportTrace(const Tracer &tracer, const std::string &chrome_path,
                 const std::string &text_path);

} // namespace shmgpu::trace

#endif // SHMGPU_COMMON_TRACE_HH
