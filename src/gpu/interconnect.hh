/**
 * @file
 * SM <-> memory-partition interconnect.
 *
 * A crossbar with per-partition, per-direction links: each link has a
 * fixed traversal latency plus a serialization limit (bytes per
 * cycle), so reply bandwidth can throttle data returns when a
 * partition is hot — an effect a bare fixed-latency model misses.
 * Queueing uses the same analytic busy-until technique as the GDDR
 * channel.
 *
 * Each SM memory op reaches a partition as one mem::Transaction:
 * serveNow() runs its request traversal, Partition::serve and, for
 * reads, the reply traversal.
 */

#ifndef SHMGPU_GPU_INTERCONNECT_HH
#define SHMGPU_GPU_INTERCONNECT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace shmgpu::gpu
{

class Partition;

/** Static interconnect configuration. */
struct InterconnectParams
{
    Cycle latency = 20;          //!< traversal latency per direction
    /** Link serialization bandwidth per partition per direction.
     *  32 B/cycle comfortably exceeds one channel's 16 B/cycle of
     *  DRAM data, so the crossbar only binds under reply bursts. */
    double bytesPerCycle = 32.0;
    std::uint32_t requestBytes = 16; //!< header cost of a request

    bool operator==(const InterconnectParams &) const = default;
};

/** Crossbar between the SMs and the memory partitions. */
class Interconnect
{
  public:
    Interconnect(const InterconnectParams &params,
                 unsigned num_partitions);

    /**
     * Send a request toward @p partition at @p now; returns its
     * arrival cycle at the partition.
     */
    Cycle request(PartitionId partition, std::uint32_t bytes, Cycle now);

    /**
     * Send a reply of @p bytes from @p partition at @p now; returns
     * its arrival cycle at the SM.
     */
    Cycle reply(PartitionId partition, std::uint32_t bytes, Cycle now);

    /**
     * Serve @p t against @p part: request traversal,
     * Partition::serve, reply traversal for reads. Returns the SM-side
     * completion cycle for reads, the partition arrival cycle for
     * writes.
     */
    Cycle serveNow(const mem::Transaction &t, Partition &part);

    /**
     * Attach the flight recorder. TxnEnqueue lands on @p sm_lane (the
     * SM thread emits it); TxnDequeue lands on the serving partition's
     * lane.
     */
    void
    setTracer(trace::Tracer *t, std::uint32_t sm_lane)
    {
        tracer = t;
        smLane = sm_lane;
    }

    void regStats(stats::StatGroup *parent);

    const InterconnectParams &params() const { return config; }

    /** Largest message with a precomputed serialization: a request
     *  header plus one block, with room to spare. */
    static constexpr std::uint32_t tableBytes = 256;

    /**
     * Link cycles to serialize a @p bytes message:
     * max(ceil(bytes / bytesPerCycle), 1).
     */
    Cycle
    serializeCycles(std::uint32_t bytes) const
    {
        return bytes <= tableBytes ? serialize[bytes]
                                   : computeSerialize(bytes);
    }

  private:
    struct Link
    {
        Cycle busyUntil = 0;
    };

    Cycle traverse(Link &link, std::uint32_t bytes, Cycle now);
    /** The serialization formula (table fill, and larger messages). */
    Cycle computeSerialize(std::uint32_t bytes) const;

    static std::uint64_t
    txnPayload(const mem::Transaction &t)
    {
        return t.phys |
               (t.type == mem::AccessType::Write
                    ? std::uint64_t{1} << 63
                    : 0);
    }

    InterconnectParams config;
    /** serializeCycles() by message size. */
    std::array<Cycle, tableBytes + 1> serialize{};
    std::vector<Link> toPartition;
    std::vector<Link> toSm;

    trace::Tracer *tracer = nullptr;
    std::uint32_t smLane = 0;

    stats::StatGroup statGroup;
    stats::Scalar statRequests;
    stats::Scalar statReplies;
    stats::Scalar statRequestBytes;
    stats::Scalar statReplyBytes;
};

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_INTERCONNECT_HH
