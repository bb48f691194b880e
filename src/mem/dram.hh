/**
 * @file
 * GDDR memory-partition channel model.
 *
 * Each memory partition owns one GDDR channel. The model is an
 * analytic queue: a request occupies the channel's data bus for its
 * burst time (bytes / bytesPerCycle) and its bank for a row-cycle-
 * dependent service time (row hit vs. row miss). Queueing delay
 * emerges from bus/bank busy intervals, which is the effect the paper
 * depends on: security-metadata traffic lengthens the queue seen by
 * regular data.
 *
 * The per-request arithmetic is division-free: row and bank come from
 * precomputed ExactDividers, and burst lengths up to one cache block
 * (every transfer the simulator issues) from a per-channel table built
 * once from bytesPerCycle.
 */

#ifndef SHMGPU_MEM_DRAM_HH
#define SHMGPU_MEM_DRAM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace shmgpu::mem
{

/** Static configuration of a DRAM partition channel. */
struct DramParams
{
    std::string name = "dram";
    /** Peak data-bus bandwidth in bytes per core cycle. 336 GB/s over
     *  12 partitions at 1.506 GHz core clock = 18.6 B/cycle/partition. */
    double bytesPerCycle = 18.6;
    unsigned numBanks = 16;
    std::uint64_t rowBytes = 2048;   //!< row-buffer (page) size
    Cycle rowHitLatency = 40;        //!< CAS-only access (core cycles)
    Cycle rowMissLatency = 110;      //!< precharge+activate+CAS
    Cycle minBurstCycles = 2;        //!< floor for a 32 B burst
    /**
     * Rows an FR-FCFS scheduler can keep "effectively open" per bank:
     * the controller batches same-row requests from its queue, which a
     * strict-FCFS single-open-row model cannot express. Modeled as a
     * small LRU set of recently used rows per bank.
     */
    unsigned schedulerRowWindow = 12;
    /**
     * Read-priority scheduling: writes are parked in a write queue
     * and drained during idle bus cycles; they only block reads once
     * the queue fills (in bus-cycles of backlog). 64 pending 32 B
     * bursts at 2 cycles each.
     */
    Cycle writeQueueCycles = 128;

    bool operator==(const DramParams &) const = default;
};

/** Completion info for an enqueued DRAM transaction. */
struct DramResult
{
    Cycle complete = 0;  //!< cycle at which data is fully transferred
};

/** One GDDR channel with banked row-buffer timing. */
class DramChannel
{
  public:
    explicit DramChannel(const DramParams &params);

    /**
     * Enqueue a transaction of @p bytes at physical/local address
     * @p addr at time @p now. Returns its completion cycle. @p cls
     * attributes the traffic for Fig.-14-style accounting.
     */
    DramResult enqueue(Cycle now, Addr addr, std::uint32_t bytes,
                       AccessType type, TrafficClass cls);

    /** Total bytes moved for a traffic class. */
    std::uint64_t bytesMoved(TrafficClass cls) const;

    /** Cycles the data bus was occupied (for utilization). */
    Cycle busBusyCycles() const { return busBusy; }

    /** First cycle at which a new request could start transferring. */
    Cycle nextFree() const { return busFreeAt; }

    /** Parked write backlog, in bus cycles (diagnostics). */
    Cycle pendingWrites() const { return pendingWriteCycles; }

    /** Largest transfer with a precomputed burst: one 128 B block. */
    static constexpr std::uint32_t tableBytes = 128;

    /**
     * Data-bus cycles of a @p bytes transfer:
     * max(ceil(bytes / bytesPerCycle), minBurstCycles).
     */
    Cycle
    burstCycles(std::uint32_t bytes) const
    {
        return bytes <= tableBytes ? bursts[bytes] : computeBurst(bytes);
    }

    void regStats(stats::StatGroup *parent);

    const DramParams &params() const { return config; }

  private:
    struct Bank
    {
        Cycle busyUntil = 0;
        /** LRU set of effectively-open rows (FR-FCFS batching). */
        std::vector<std::uint64_t> openRows;
    };

    DramParams config;
    std::vector<Bank> banks;
    ExactDivider rowDiv;  //!< / rowBytes
    ExactDivider bankDiv; //!< / numBanks
    /** The burst formula (table fill, and transfers above a block). */
    Cycle computeBurst(std::uint32_t bytes) const;

    /** burstCycles() by transfer size; entry 0 is unused. */
    std::array<Cycle, tableBytes + 1> bursts{};
    Cycle busFreeAt = 0;
    Cycle busBusy = 0;
    /** Bus-cycles of parked write bursts (read-priority model). */
    Cycle pendingWriteCycles = 0;

    std::array<std::uint64_t,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        classBytes{};
    std::array<std::uint64_t,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        classReqs{};

    stats::StatGroup statGroup;
    stats::Scalar statReads;
    stats::Scalar statWrites;
    stats::Scalar statRowHits;
    stats::Scalar statRowMisses;
    stats::Scalar statBytes;
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_DRAM_HH
