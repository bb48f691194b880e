/**
 * @file
 * MAC-store tests.
 */

#include <gtest/gtest.h>

#include "meta/mac_store.hh"

using namespace shmgpu;
using namespace shmgpu::meta;

namespace
{

class MacStoreTest : public ::testing::Test
{
  protected:
    MacStoreTest() : layout(makeParams()), store(layout) {}

    static LayoutParams
    makeParams()
    {
        LayoutParams p;
        p.dataBytes = 1 << 20;
        return p;
    }

    MetadataLayout layout;
    MacStore store;
};

} // namespace

TEST_F(MacStoreTest, UnsetMacsAreEmpty)
{
    EXPECT_FALSE(store.blockMac(0).has_value());
    EXPECT_FALSE(store.chunkMac(0).has_value());
}

TEST_F(MacStoreTest, BlockMacRoundTrip)
{
    store.setBlockMac(0x100, 0xABCD);
    // Any address within the block resolves to the same MAC.
    EXPECT_EQ(store.blockMac(0x17F), 0xABCD);
    EXPECT_FALSE(store.blockMac(0x200).has_value());
    EXPECT_EQ(store.blockMacsStored(), 1u);
}

TEST_F(MacStoreTest, ChunkMacRoundTrip)
{
    store.setChunkMac(0x1000, 0x1234);
    EXPECT_EQ(store.chunkMac(0x1FFF), 0x1234);
    EXPECT_FALSE(store.chunkMac(0x2000).has_value());
}

TEST_F(MacStoreTest, CorruptionFlipsBits)
{
    store.setBlockMac(0, 0xFF);
    store.corruptBlockMac(0, 0x0F);
    EXPECT_EQ(store.blockMac(0), 0xF0);

    store.setChunkMac(0, 0xFF);
    store.corruptChunkMac(0, 0xFF);
    EXPECT_EQ(store.chunkMac(0), 0x00);
}

TEST_F(MacStoreTest, CorruptingUnsetMacPanics)
{
    EXPECT_DEATH(store.corruptBlockMac(0, 1), "never stored");
    EXPECT_DEATH(store.corruptChunkMac(0, 1), "never stored");
}

TEST_F(MacStoreTest, ChunkBlockMacsIsTheChunksRun)
{
    for (LocalAddr a = 0x1000; a < 0x2000; a += 128)
        store.setBlockMac(a, a);
    auto run = store.chunkBlockMacs(0x1FFF);
    ASSERT_EQ(run.size(), 32u);
    for (std::size_t i = 0; i < run.size(); ++i)
        EXPECT_EQ(run[i], 0x1000 + i * 128);
    EXPECT_EQ(store.blockMacsStored(), 32u);
}

TEST(MacStore, LastChunkRunIsClipped)
{
    LayoutParams p;
    p.dataBytes = 4096 + 3 * 128;
    MetadataLayout layout(p);
    MacStore store(layout);
    EXPECT_EQ(store.chunkBlockMacs(4096).size(), 3u);
    EXPECT_EQ(store.chunkBlockMacs(0).size(), 32u);
}

TEST_F(MacStoreTest, AccessBeyondSizePanics)
{
    const LocalAddr end = 1 << 20;
    EXPECT_DEATH(store.setBlockMac(end, 1),
                 "address 1048576 beyond its 1048576");
    EXPECT_DEATH(store.blockMac(end + 128), "beyond its 1048576");
    EXPECT_DEATH(store.setChunkMac(end, 1), "beyond its 1048576");
    EXPECT_DEATH(store.chunkMac(end), "beyond its 1048576");
    EXPECT_DEATH(store.chunkBlockMacs(end), "beyond its 1048576");
    EXPECT_DEATH(store.corruptBlockMac(end, 1), "beyond its 1048576");
    store.setBlockMac(end - 1, 7);
    EXPECT_EQ(store.blockMac(end - 128), 7u);
}
