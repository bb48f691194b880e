/**
 * @file
 * Memory-partition integration tests: the L2 + MEE + GDDR pipeline of
 * one partition, driven directly.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "gpu/partition.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;
using namespace shmgpu::gpu;

namespace
{

/** Routes metadata back into the partition's own channel. */
class LoopbackRouter : public mee::DramRouter
{
  public:
    Cycle
    enqueueMeta(PartitionId, Addr bank_addr, std::uint32_t bytes,
                mem::AccessType type, mem::TrafficClass cls,
                Cycle now) override
    {
        shm_assert(target != nullptr, "router used before wiring");
        return target->channel()
            .enqueue(now, bank_addr, bytes, type, cls)
            .complete;
    }

    Partition *target = nullptr;
};

class PartitionTest : public ::testing::Test
{
  protected:
    void
    make(schemes::Scheme scheme)
    {
        gp.protectedBytesPerPartition = 32 << 20;
        mee::MeeParams mp = schemes::makeMeeParams(scheme);
        meta::LayoutParams lp;
        lp.dataBytes = gp.protectedBytesPerPartition;
        lp.chunkBytes = mp.streamDetector.chunkBytes;
        layout = std::make_unique<meta::MetadataLayout>(lp);
        map = std::make_unique<mem::AddressMap>(gp.numPartitions, 256);
        part = std::make_unique<Partition>(gp, mp, 0, layout.get(),
                                           &router, map.get(), nullptr);
        router.target = part.get();
    }

    GpuParams gp;
    LoopbackRouter router;
    std::unique_ptr<meta::MetadataLayout> layout;
    std::unique_ptr<mem::AddressMap> map;
    std::unique_ptr<Partition> part;
};

/** Bytes @p part's channel moved over every traffic class, summed the
 *  way GpuSimulator::gatherMetrics sums a run's DRAM bytes. */
std::uint64_t
dramBytes(const Partition &part)
{
    std::uint64_t total = 0;
    for (auto cls : {mem::TrafficClass::Data, mem::TrafficClass::Counter,
                     mem::TrafficClass::Mac, mem::TrafficClass::Bmt,
                     mem::TrafficClass::Extra})
        total += part.channel().bytesMoved(cls);
    return total;
}

} // namespace

TEST_F(PartitionTest, BaselineReadMovesOnlyData)
{
    make(schemes::Scheme::Baseline);
    Cycle done = part->read(0x1000, 0x1000, 100);
    EXPECT_GT(done, 100u);
    EXPECT_GT(part->channel().bytesMoved(mem::TrafficClass::Data), 0u);
    EXPECT_EQ(dramBytes(*part),
              part->channel().bytesMoved(mem::TrafficClass::Data));
}

TEST_F(PartitionTest, SecureReadAddsAesLatencyAndMetadata)
{
    make(schemes::Scheme::Baseline);
    Cycle base_done = part->read(0x1000, 0x1000, 100);

    make(schemes::Scheme::Pssm);
    Cycle secure_done = part->read(0x1000, 0x1000, 100);
    EXPECT_GE(secure_done, base_done + 40) << "AES latency applies";
    EXPECT_GT(part->channel().bytesMoved(mem::TrafficClass::Counter), 0u);
    EXPECT_GT(part->channel().bytesMoved(mem::TrafficClass::Mac), 0u);
}

TEST_F(PartitionTest, L2HitNeedsNoDram)
{
    make(schemes::Scheme::Pssm);
    part->read(0x1000, 0x1000, 100);
    std::uint64_t bytes = dramBytes(*part);
    Cycle done = part->read(0x1000, 0x1000, 1000);
    EXPECT_EQ(dramBytes(*part), bytes);
    EXPECT_EQ(done, 1000 + gp.l2HitLatency);
}

TEST_F(PartitionTest, WritebacksReachTheMee)
{
    GpuParams small = gp;
    make(schemes::Scheme::Pssm);
    (void)small;
    // Fill well past the L2 to force dirty evictions.
    std::uint64_t l2_lines =
        2 * gp.l2BankBytes / 128; // two banks
    for (std::uint64_t i = 0; i < l2_lines * 3; ++i)
        part->write(i * 128, i * 128, 100 + i);
    EXPECT_GT(part->channel().bytesMoved(mem::TrafficClass::Counter), 0u)
        << "evicted dirty data triggered counter RMWs";
    EXPECT_GT(part->mee().counterCache().accesses(), 0u);
}

TEST_F(PartitionTest, HostCopyEnablesSharedCounterReads)
{
    make(schemes::Scheme::Shm);
    part->hostCopy(0, 1 << 20);
    part->read(0x2000, 0x2000, 100);
    EXPECT_EQ(part->mee().sharedCounterReads(), 1u);
    EXPECT_EQ(part->channel().bytesMoved(mem::TrafficClass::Counter), 0u);
}

TEST_F(PartitionTest, MetadataVictimLinesDoNotReenterTheMee)
{
    make(schemes::Scheme::Shm);
    // Inserting a metadata line (address above the protected space)
    // that later evicts must go to DRAM as metadata, not recurse into
    // onWrite.
    Addr meta_addr = gp.protectedBytesPerPartition + 4096;
    part->victimInsert(meta_addr, 0xF, 0xF, mem::TrafficClass::Mac, 100);
    EXPECT_TRUE(part->victimProbe(meta_addr));
    const std::uint64_t mee_writes_before =
        part->mee().counterCache().accesses();
    // Evict it by flooding the same set region with data.
    for (int i = 0; i < 64; ++i)
        part->write(meta_addr % (1 << 20) +
                        static_cast<LocalAddr>(i) * 128 * 64,
                    0, 200 + i);
    EXPECT_GE(part->mee().counterCache().accesses(), mee_writes_before);
}

TEST_F(PartitionTest, KernelBoundaryResetsSampling)
{
    make(schemes::Scheme::ShmVL2);
    for (int i = 0; i < 4096; ++i)
        part->read(static_cast<LocalAddr>(i) * 128, 0,
                   100 + static_cast<Cycle>(i));
    EXPECT_TRUE(part->bank(0).sampleWarm());
    part->kernelBoundary(10000);
    EXPECT_FALSE(part->bank(0).sampleWarm());
}
