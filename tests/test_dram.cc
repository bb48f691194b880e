/**
 * @file
 * GDDR channel model tests: bandwidth accounting, row behaviour,
 * queueing, traffic classes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mem/dram.hh"
#include "stats_lookup.hh"

using namespace shmgpu;
using namespace shmgpu::mem;

namespace
{

DramParams
params()
{
    DramParams p;
    p.bytesPerCycle = 16.0;
    p.numBanks = 16;
    p.rowBytes = 2048;
    p.rowHitLatency = 40;
    p.rowMissLatency = 110;
    return p;
}

} // namespace

TEST(Dram, SingleAccessLatency)
{
    DramChannel ch(params());
    // Cold access: row miss => activate penalty + CAS + burst.
    DramResult r = ch.enqueue(0, 0, 32, AccessType::Read,
                              TrafficClass::Data);
    EXPECT_EQ(r.complete, (110 - 40) + 40 + 2u);
}

TEST(Dram, RowHitIsFaster)
{
    DramChannel ch(params());
    Cycle miss = ch.enqueue(0, 0, 32, AccessType::Read,
                            TrafficClass::Data)
                     .complete;
    // Same row, issued much later (no queueing): only CAS + burst.
    Cycle hit = ch.enqueue(1000, 64, 32, AccessType::Read,
                           TrafficClass::Data)
                    .complete;
    EXPECT_EQ(hit - 1000, 40 + 2u);
    EXPECT_GT(miss, 40 + 2u);
}

TEST(Dram, BusSerializesBackToBackBursts)
{
    DramChannel ch(params());
    Cycle first = ch.enqueue(0, 0, 32, AccessType::Read,
                             TrafficClass::Data)
                      .complete;
    // Same cycle, same row: the data bus serializes the bursts.
    Cycle second = ch.enqueue(0, 64, 32, AccessType::Read,
                              TrafficClass::Data)
                       .complete;
    EXPECT_EQ(second, first + 2);
}

TEST(Dram, SaturatedThroughputMatchesPeak)
{
    DramChannel ch(params());
    // Stream 4 KB of sectors issued at time 0: total transfer time is
    // bytes / bytesPerCycle once the pipe fills.
    Cycle last = 0;
    for (int i = 0; i < 128; ++i)
        last = ch.enqueue(0, Addr{static_cast<std::uint64_t>(i)} * 32, 32,
                          AccessType::Read, TrafficClass::Data)
                   .complete;
    // 128 sectors x 2 cycles = 256 cycles of bus time (+ startup).
    EXPECT_GE(last, 256u);
    EXPECT_LE(last, 256u + 200u);
    EXPECT_EQ(ch.busBusyCycles(), 256u);
}

TEST(Dram, SchedulerRowWindowToleratesInterleavedStreams)
{
    stats::StatGroup root(nullptr, "root");
    DramChannel ch(params());
    ch.regStats(&root);
    // Two interleaved streams in different rows of the same bank: the
    // FR-FCFS window should keep both rows effectively open, so only
    // the two initial activations miss.
    std::uint64_t row_a = 0;
    std::uint64_t row_b = 16; // same bank (16 banks, row % 16)
    for (int i = 0; i < 32; ++i) {
        ch.enqueue(Cycle{static_cast<std::uint64_t>(i)} * 4,
                   (i % 2 ? row_b : row_a) * 2048 +
                       static_cast<std::uint64_t>(i / 2) * 32,
                   32, AccessType::Read, TrafficClass::Data);
    }
    bool found = false;
    EXPECT_EQ(stats::lookupStat(root, "dram.row_misses", &found), 2u);
    EXPECT_TRUE(found);
    EXPECT_EQ(stats::lookupStat(root, "dram.row_hits", &found), 30u);
}

TEST(Dram, TrafficClassAccounting)
{
    DramChannel ch(params());
    ch.enqueue(0, 0, 32, AccessType::Read, TrafficClass::Data);
    ch.enqueue(0, 64, 64, AccessType::Write, TrafficClass::Counter);
    ch.enqueue(0, 128, 32, AccessType::Read, TrafficClass::Mac);
    ch.enqueue(0, 256, 32, AccessType::Read, TrafficClass::Bmt);
    ch.enqueue(0, 512, 32, AccessType::Read, TrafficClass::Extra);

    EXPECT_EQ(ch.bytesMoved(TrafficClass::Data), 32u);
    EXPECT_EQ(ch.bytesMoved(TrafficClass::Counter), 64u);
    EXPECT_EQ(ch.bytesMoved(TrafficClass::Mac), 32u);
    EXPECT_EQ(ch.bytesMoved(TrafficClass::Bmt), 32u);
    EXPECT_EQ(ch.bytesMoved(TrafficClass::Extra), 32u);
}

TEST(Dram, CompletionsAreMonotonicInQueueOrder)
{
    DramChannel ch(params());
    Cycle prev = 0;
    for (int i = 0; i < 100; ++i) {
        Cycle done = ch.enqueue(Cycle{static_cast<std::uint64_t>(i)},
                                Addr{static_cast<std::uint64_t>(i)} * 4096,
                                32, AccessType::Read, TrafficClass::Data)
                         .complete;
        EXPECT_GE(done, prev);
        prev = done;
    }
}

TEST(Dram, ZeroByteTransactionPanics)
{
    DramChannel ch(params());
    EXPECT_DEATH(ch.enqueue(0, 0, 0, AccessType::Read,
                            TrafficClass::Data),
                 "zero-byte");
}

TEST(Dram, LargeBurstScalesWithSize)
{
    DramChannel ch(params());
    Cycle small = ch.enqueue(0, 0, 32, AccessType::Read,
                             TrafficClass::Data)
                      .complete;
    DramChannel ch2(params());
    Cycle large = ch2.enqueue(0, 0, 4096, AccessType::Read,
                              TrafficClass::Data)
                      .complete;
    EXPECT_EQ(large - small, (4096 - 32) / 16u);
}

#include <sstream>

TEST(Dram, StatsRegistration)
{
    stats::StatGroup root(nullptr, "root");
    DramChannel ch(params());
    ch.regStats(&root);
    ch.enqueue(0, 0, 32, AccessType::Read, TrafficClass::Data);
    bool found = false;
    EXPECT_EQ(stats::lookupStat(root, "dram.reads", &found), 1u);
    EXPECT_TRUE(found);
    EXPECT_EQ(stats::lookupStat(root, "dram.bytes", &found), 32u);
}

TEST(Dram, WritesAreParkedBehindReads)
{
    DramChannel ch(params());
    // A write burst...
    for (int i = 0; i < 8; ++i)
        ch.enqueue(0, Addr{static_cast<std::uint64_t>(i)} * 32, 32,
                   AccessType::Write, TrafficClass::Data);
    EXPECT_GT(ch.pendingWrites(), 0u);
    // ...does not delay an immediately following read (read priority).
    Cycle read_done = ch.enqueue(0, 4096, 32, AccessType::Read,
                                 TrafficClass::Data)
                          .complete;
    EXPECT_LE(read_done, (110 - 40) + 40 + 2u);
}

TEST(Dram, WriteQueueDrainsDuringIdleGaps)
{
    DramChannel ch(params());
    for (int i = 0; i < 8; ++i)
        ch.enqueue(0, Addr{static_cast<std::uint64_t>(i)} * 32, 32,
                   AccessType::Write, TrafficClass::Data);
    Cycle backlog = ch.pendingWrites();
    EXPECT_GT(backlog, 0u);
    // A read far in the future sees the backlog drained for free.
    ch.enqueue(100000, 4096, 32, AccessType::Read, TrafficClass::Data);
    EXPECT_EQ(ch.pendingWrites(), 0u);
}

TEST(Dram, FullWriteQueueBlocksReads)
{
    DramParams p = params();
    p.writeQueueCycles = 16;
    DramChannel ch(p);
    // Saturate the write queue well past its capacity.
    for (int i = 0; i < 64; ++i)
        ch.enqueue(0, Addr{static_cast<std::uint64_t>(i)} * 32, 32,
                   AccessType::Write, TrafficClass::Data);
    // The forced drain pushes the bus timeline out, delaying reads:
    // bandwidth is conserved even under read-priority scheduling.
    Cycle read_done = ch.enqueue(0, 4096, 32, AccessType::Read,
                                 TrafficClass::Data)
                          .complete;
    EXPECT_GT(read_done, 64u * 2u - 16u);
}

TEST(Dram, BurstMatchesFormulaForEveryByteSize)
{
    // The per-channel burst table (and the formula above one block)
    // against the division it replaces, at the default 16 B/cycle and
    // at non-integral rates, including one below a byte per cycle.
    for (double rate : {16.0, 18.6, 21.3, 0.7}) {
        DramParams p = params();
        p.bytesPerCycle = rate;
        DramChannel ch(p);
        for (std::uint32_t bytes = 1; bytes <= 4 * DramChannel::tableBytes;
             ++bytes) {
            Cycle want = std::max(
                static_cast<Cycle>(std::ceil(static_cast<double>(bytes) /
                                             rate)),
                p.minBurstCycles);
            ASSERT_EQ(ch.burstCycles(bytes), want)
                << bytes << " B at " << rate << " B/cycle";
        }
        // enqueue() charges exactly that burst to the bus.
        Cycle busy = 0;
        for (std::uint32_t bytes : {1u, 32u, 96u, 128u, 129u}) {
            ch.enqueue(0, 0, bytes, AccessType::Read, TrafficClass::Data);
            busy += ch.burstCycles(bytes);
            EXPECT_EQ(ch.busBusyCycles(), busy);
        }
    }
}

TEST(Dram, NonPowerOfTwoGeometryMatchesDivision)
{
    // Row and bank selection with a non-pow2 row size and bank count:
    // two addresses share a row-buffer hit exactly when
    // addr / rowBytes matches.
    DramParams p = params();
    p.rowBytes = 1536;
    p.numBanks = 12;
    p.schedulerRowWindow = 1;
    DramChannel ch(p);
    std::uint64_t hits = 0;
    Addr prev_row_of_bank[12];
    bool open[12] = {};
    Cycle now = 0;
    for (Addr addr = 0; addr < 400000; addr += 997) {
        const std::uint64_t row = addr / p.rowBytes;
        const std::size_t bank = row % p.numBanks;
        if (open[bank] && prev_row_of_bank[bank] == row)
            ++hits;
        open[bank] = true;
        prev_row_of_bank[bank] = row;
        ch.enqueue(now += 1000, addr, 32, AccessType::Read,
                   TrafficClass::Data);
    }
    stats::StatGroup root(nullptr, "root");
    ch.regStats(&root);
    bool found = false;
    EXPECT_EQ(stats::lookupStat(root, "dram.row_hits", &found), hits);
    EXPECT_TRUE(found);
    EXPECT_GT(hits, 0u);
}
