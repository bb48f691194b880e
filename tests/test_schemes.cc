/**
 * @file
 * Scheme-factory tests (Table VIII).
 */

#include <gtest/gtest.h>

#include "schemes/schemes.hh"

using namespace shmgpu;
using namespace shmgpu::schemes;

TEST(Schemes, NamesRoundTrip)
{
    for (Scheme s : allSchemes())
        EXPECT_EQ(schemeFromName(schemeName(s)), s);
    EXPECT_EQ(schemeFromName("Baseline"), Scheme::Baseline);
}

TEST(Schemes, UnknownNameIsFatal)
{
    EXPECT_DEATH(schemeFromName("SGX"), "unknown scheme");
}

TEST(Schemes, TableVIIIListsNineDesigns)
{
    EXPECT_EQ(allSchemes().size(), 9u);
}

TEST(Schemes, BaselineDisablesSecurity)
{
    EXPECT_FALSE(makeMeeParams(Scheme::Baseline).secure);
    for (Scheme s : allSchemes())
        EXPECT_TRUE(makeMeeParams(s).secure) << schemeName(s);
}

TEST(Schemes, NaiveUsesPhysicalUnsectoredMetadata)
{
    auto p = makeMeeParams(Scheme::Naive);
    EXPECT_FALSE(p.localMetadataAddressing);
    EXPECT_FALSE(p.sectoredMetadata);
    EXPECT_FALSE(p.commonCounters);
    EXPECT_FALSE(p.readOnlyOpt);
    EXPECT_FALSE(p.dualGranularityMac);
}

TEST(Schemes, PssmUsesLocalSectoredMetadata)
{
    auto p = makeMeeParams(Scheme::Pssm);
    EXPECT_TRUE(p.localMetadataAddressing);
    EXPECT_TRUE(p.sectoredMetadata);
}

TEST(Schemes, ShmAddsBothOptimizations)
{
    auto p = makeMeeParams(Scheme::Shm);
    EXPECT_TRUE(p.readOnlyOpt);
    EXPECT_TRUE(p.dualGranularityMac);
    EXPECT_FALSE(p.victimL2);
}

TEST(Schemes, VariantsDifferAsDocumented)
{
    EXPECT_FALSE(makeMeeParams(Scheme::ShmReadOnly).dualGranularityMac);
    EXPECT_TRUE(makeMeeParams(Scheme::ShmCctr).commonCounters);
    EXPECT_TRUE(makeMeeParams(Scheme::ShmVL2).victimL2);
    EXPECT_TRUE(makeMeeParams(Scheme::CommonCtr).commonCounters);
    EXPECT_TRUE(makeMeeParams(Scheme::PssmCctr).commonCounters);
}

TEST(Schemes, UpperBoundUsesOracle)
{
    auto p = makeMeeParams(Scheme::ShmUpperBound);
    EXPECT_EQ(p.streamDetector.trackers, 0u) << "unlimited MATs";
    EXPECT_GT(p.streamDetector.entries, 2048u);
    EXPECT_TRUE(needsProfilePass(Scheme::ShmUpperBound));
    EXPECT_FALSE(needsProfilePass(Scheme::Shm));
}

TEST(Schemes, TableVIMdcDefaults)
{
    auto p = makeMeeParams(Scheme::Pssm);
    for (const auto *cache :
         {&p.counterCache, &p.macCache, &p.bmtCache}) {
        EXPECT_EQ(cache->sizeBytes, 2048u);
        EXPECT_EQ(cache->blockBytes, 128u);
        EXPECT_EQ(cache->assoc, 4u);
        EXPECT_TRUE(cache->writeAllocate);
    }
}
