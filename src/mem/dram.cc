#include "mem/dram.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::mem
{

DramChannel::DramChannel(const DramParams &params) : config(params)
{
    shm_assert(config.bytesPerCycle > 0, "bandwidth must be positive");
    shm_assert(config.numBanks > 0, "need at least one bank");
    shm_assert(config.rowBytes > 0, "row size must be nonzero");
    banks.resize(config.numBanks);
    rowDiv = ExactDivider(config.rowBytes);
    bankDiv = ExactDivider(config.numBanks);
    for (std::uint32_t bytes = 1; bytes <= tableBytes; ++bytes)
        bursts[bytes] = computeBurst(bytes);
}

Cycle
DramChannel::computeBurst(std::uint32_t bytes) const
{
    return std::max(static_cast<Cycle>(std::ceil(
                        static_cast<double>(bytes) / config.bytesPerCycle)),
                    config.minBurstCycles);
}

DramResult
DramChannel::enqueue(Cycle now, Addr addr, std::uint32_t bytes,
                     AccessType type, TrafficClass cls)
{
    shm_assert(bytes > 0, "zero-byte DRAM transaction");

    std::uint64_t row = rowDiv.quot(addr);
    Bank &bank = banks[bankDiv.rem(row)];

    // FR-FCFS row window: hit if the row was opened recently enough
    // for the scheduler to batch with it.
    auto it = std::find(bank.openRows.begin(), bank.openRows.end(), row);
    bool row_hit = it != bank.openRows.end();
    if (row_hit) {
        bank.openRows.erase(it);
    } else if (bank.openRows.size() >= config.schedulerRowWindow) {
        bank.openRows.erase(bank.openRows.begin());
    }
    bank.openRows.push_back(row); // most-recently-used at the back

    // Row misses occupy the bank for the precharge+activate time; CAS
    // commands to an open row pipeline, so back-to-back row hits are
    // limited only by the shared data bus.
    Cycle bank_free = std::max(now, bank.busyUntil);
    Cycle activate_done =
        row_hit ? bank_free
                : bank_free + (config.rowMissLatency -
                               config.rowHitLatency);
    bank.busyUntil = activate_done;

    const Cycle burst = burstCycles(bytes);

    // Read-priority scheduling: drain parked writes through any idle
    // bus window that has passed.
    if (now > busFreeAt) {
        Cycle gap = now - busFreeAt;
        Cycle drained = std::min(gap, pendingWriteCycles);
        pendingWriteCycles -= drained;
        busFreeAt += drained;
    }

    Cycle earliest = activate_done + config.rowHitLatency;
    Cycle complete;
    if (type == AccessType::Write) {
        // Park the write; it only consumes bus time once drained.
        pendingWriteCycles += burst;
        if (pendingWriteCycles > config.writeQueueCycles) {
            // Queue full: force-drain the excess ahead of later reads.
            Cycle excess = pendingWriteCycles - config.writeQueueCycles;
            busFreeAt = std::max(busFreeAt, now) + excess;
            pendingWriteCycles = config.writeQueueCycles;
        }
        complete = std::max(earliest, busFreeAt) + pendingWriteCycles +
                   burst;
    } else {
        Cycle data_start = std::max(earliest, busFreeAt);
        complete = data_start + burst;
        busFreeAt = complete;
    }
    busBusy += burst;

    auto idx = static_cast<std::size_t>(cls);
    classBytes[idx] += bytes;
    ++classReqs[idx];

    if (type == AccessType::Read)
        ++statReads;
    else
        ++statWrites;
    if (row_hit)
        ++statRowHits;
    else
        ++statRowMisses;
    statBytes += bytes;

    return {complete};
}

std::uint64_t
DramChannel::bytesMoved(TrafficClass cls) const
{
    return classBytes[static_cast<std::size_t>(cls)];
}

void
DramChannel::regStats(stats::StatGroup *parent)
{
    statGroup.attach(parent, config.name);
    statGroup.addScalar("reads", &statReads, "read transactions");
    statGroup.addScalar("writes", &statWrites, "write transactions");
    statGroup.addScalar("row_hits", &statRowHits, "row-buffer hits");
    statGroup.addScalar("row_misses", &statRowMisses, "row-buffer misses");
    statGroup.addScalar("bytes", &statBytes, "total bytes transferred");
}

} // namespace shmgpu::mem
