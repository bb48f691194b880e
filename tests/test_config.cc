/**
 * @file
 * Config-file and parameter-override tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "core/overrides.hh"
#include "mem/replacement.hh"

using namespace shmgpu;

namespace
{

Config
parse(const std::string &text)
{
    std::istringstream is(text);
    return Config::fromStream(is, "<test>");
}

} // namespace

TEST(Config, ParsesTypedValues)
{
    Config c = parse(R"(
# a comment
alpha = 42
beta  = 2.5        # trailing comment
gamma = true
delta = hello
)");
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.getU64("alpha", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("beta", 0), 2.5);
    EXPECT_TRUE(c.getBool("gamma", false));
    EXPECT_EQ(c.getString("delta", ""), "hello");
    c.assertConsumed();
}

TEST(Config, UnconsumedKeysShrinkAsGettersRead)
{
    Config c = parse("b = 2\na = 1\n");
    EXPECT_EQ(c.unconsumedKeys(), (std::vector<std::string>{"a", "b"}));
    c.getU64("a", 0);
    EXPECT_EQ(c.unconsumedKeys(), std::vector<std::string>{"b"});
    c.getU64("b", 0);
    EXPECT_TRUE(c.unconsumedKeys().empty());
}

TEST(Config, FallbacksForMissingKeys)
{
    Config c = parse("x = 1\n");
    EXPECT_EQ(c.getU64("missing", 7), 7u);
    EXPECT_FALSE(c.getBool("nope", false));
    EXPECT_TRUE(c.has("x"));
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, Errors)
{
    EXPECT_DEATH(parse("no equals sign\n"), "expected 'key = value'");
    EXPECT_DEATH(parse("a = 1\na = 2\n"), "duplicate key");
    EXPECT_DEATH(parse("a = x\n").getU64("a", 0), "non-integer");
    EXPECT_DEATH(parse("a = maybe\n").getBool("a", false),
                 "non-boolean");
    EXPECT_DEATH(
        {
            Config c = parse("typo_key = 1\n");
            c.assertConsumed();
        },
        "unknown configuration key 'typo_key'");
}

TEST(Overrides, ApplyToGpuAndMeeParams)
{
    Config c = parse(R"(
gpu.num_sms          = 16
gpu.sm_window        = 24
dram.bytes_per_cycle = 8
mee.mats             = 4
mee.chunk_bytes      = 2048
mee.mac_bytes        = 4
mee.static_space_hints = true
)");
    gpu::GpuParams gp;
    mee::MeeParams mp;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, mp);
    c.assertConsumed();

    EXPECT_EQ(gp.numSms, 16u);
    EXPECT_EQ(gp.smWindow, 24u);
    EXPECT_DOUBLE_EQ(gp.dram.bytesPerCycle, 8.0);
    EXPECT_EQ(mp.streamDetector.trackers, 4u);
    EXPECT_EQ(mp.streamDetector.chunkBytes, 2048u);
    EXPECT_EQ(mp.macBytes, 4u);
    EXPECT_TRUE(mp.staticSpaceHints);
}

TEST(Overrides, ReplacementPolicyKeys)
{
    Config c = parse(R"(
cache.policy   = sieve
mee.mdc_policy = s3fifo
)");
    gpu::GpuParams gp;
    mee::MeeParams mp;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, mp);
    c.assertConsumed();
    EXPECT_EQ(gp.l2Policy, mem::PolicyKind::Sieve);
    EXPECT_EQ(mp.mdcPolicy, mem::PolicyKind::S3Fifo);

    // Defaults stay LRU when the keys are absent.
    Config empty = parse("");
    gpu::GpuParams gp2;
    mee::MeeParams mp2;
    core::applyGpuOverrides(empty, gp2);
    core::applyMeeOverrides(empty, mp2);
    EXPECT_EQ(gp2.l2Policy, mem::PolicyKind::Lru);
    EXPECT_EQ(mp2.mdcPolicy, mem::PolicyKind::Lru);
}

TEST(Overrides, UnknownPolicyNamesTheValidSet)
{
    // The config error must spell out the accepted strings; spelling
    // is case-sensitive like the scheme registry.
    EXPECT_DEATH(
        {
            Config c = parse("cache.policy = clock\n");
            gpu::GpuParams gp;
            core::applyGpuOverrides(c, gp);
        },
        "unknown replacement policy 'clock' \\(expected one of: "
        "lru, fifo, random, s3fifo, sieve\\)");
    EXPECT_DEATH(
        {
            Config c = parse("mee.mdc_policy = LRU\n");
            mee::MeeParams mp;
            core::applyMeeOverrides(c, mp);
        },
        "unknown replacement policy 'LRU'");
}

TEST(Overrides, MdcBytesSetsAllThreeCaches)
{
    Config c = parse("mee.mdc_bytes = 4096\n");
    mee::MeeParams mp;
    core::applyMeeOverrides(c, mp);
    EXPECT_EQ(mp.counterCache.sizeBytes, 4096u);
    EXPECT_EQ(mp.macCache.sizeBytes, 4096u);
    EXPECT_EQ(mp.bmtCache.sizeBytes, 4096u);
}

// The crypto kernel is the CPU's pick, not a setting: no override
// applier reads crypto.backend, so it is left for assertConsumed.
TEST(Overrides, CryptoBackendKey)
{
    Config c = parse("crypto.backend = scalar\ngpu.num_sms = 8\n");
    gpu::GpuParams gp;
    mee::MeeParams mp;
    trace::TraceParams tp;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, mp);
    core::applyTraceOverrides(c, tp);
    EXPECT_EQ(gp.numSms, 8u);
    EXPECT_EQ(c.unconsumedKeys(),
              std::vector<std::string>{"crypto.backend"});
}

TEST(Overrides, UnknownCryptoBackendIsFatal)
{
    for (const char *text :
         {"crypto.backend = neon\n", "crypto.backend = auto\n"}) {
        EXPECT_DEATH(
            {
                Config c = parse(text);
                gpu::GpuParams gp;
                mee::MeeParams mp;
                core::applyGpuOverrides(c, gp);
                core::applyMeeOverrides(c, mp);
                c.assertConsumed();
            },
            "unknown configuration key 'crypto.backend'");
    }
}

TEST(Overrides, DefaultsUntouchedWithoutKeys)
{
    Config c = parse("gpu.num_sms = 8\n");
    gpu::GpuParams gp;
    mee::MeeParams mp;
    core::applyGpuOverrides(c, gp);
    core::applyMeeOverrides(c, mp);
    EXPECT_EQ(gp.numSms, 8u);
    EXPECT_EQ(gp.numPartitions, 12u);
    EXPECT_EQ(mp.macBytes, 8u);
}
