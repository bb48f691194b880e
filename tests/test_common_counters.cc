/**
 * @file
 * Common-counter table tests (Common_ctr / *_cctr schemes).
 */

#include <gtest/gtest.h>

#include "meta/counters.hh"

using namespace shmgpu;
using namespace shmgpu::meta;

namespace
{

class CommonCounterTest : public ::testing::Test
{
  protected:
    CommonCounterTest() : layout(makeParams()), table(layout) {}

    static LayoutParams
    makeParams()
    {
        LayoutParams p;
        p.dataBytes = 1 << 20;
        return p;
    }

    MetadataLayout layout;
    CommonCounterTable table;
};

} // namespace

TEST_F(CommonCounterTest, InitiallyCommonEverywhere)
{
    EXPECT_TRUE(table.isCommon(0));
    EXPECT_TRUE(table.isCommon(512 * 1024));
}

TEST_F(CommonCounterTest, WritesAreNeverCoveredAndDevolve)
{
    // Writes persist their counters; the touched region devolves.
    table.recordWrite(0);
    EXPECT_FALSE(table.isCommon(0));
    // Only that 8 KB region devolves.
    EXPECT_TRUE(table.isCommon(8 * 1024));
}

TEST_F(CommonCounterTest, DevolvedRegionStaysPerBlock)
{
    table.recordWrite(0);
    EXPECT_FALSE(table.isCommon(0));
    table.recordWrite(128);
    EXPECT_FALSE(table.isCommon(0));
}

TEST_F(CommonCounterTest, ReadsOfUntouchedRegionsStayCovered)
{
    table.recordWrite(0);
    EXPECT_TRUE(table.isCommon(512 * 1024));
}

TEST_F(CommonCounterTest, EachWriteDevolvesOnlyItsRegion)
{
    table.recordWrite(0);          // region 0 devolves
    table.recordWrite(8 * 1024);   // region 1 devolves
    EXPECT_FALSE(table.isCommon(0));
    EXPECT_FALSE(table.isCommon(8 * 1024));
    EXPECT_TRUE(table.isCommon(16 * 1024));
}

TEST_F(CommonCounterTest, LastCounterBlockOfTheSpanDevolves)
{
    // The table holds one bit per counter block: the last 8 KB region
    // of the layout is its last entry.
    const LocalAddr last = layout.params().dataBytes - 128;
    ASSERT_EQ(layout.counterBlockIndex(last),
              layout.numCounterBlocks() - 1);
    EXPECT_TRUE(table.isCommon(last));
    table.recordWrite(last);
    EXPECT_FALSE(table.isCommon(last));
    EXPECT_TRUE(table.isCommon(last - 8 * 1024));
}
