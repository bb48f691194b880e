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

/** The outputs of one core::applyCliOverrides call, from defaults. */
struct Applied
{
    gpu::GpuParams gpu;
    trace::TraceParams trace;
    mem::PolicyKind mdcPolicy = mem::PolicyKind::Lru;
};

Applied
applyCli(const std::string &text)
{
    Config c = parse(text);
    Applied out;
    core::applyCliOverrides(c, out.gpu, out.trace, out.mdcPolicy);
    return out;
}

} // namespace

TEST(Config, ParsesTypedValues)
{
    Config c = parse(R"(
# a comment
alpha = 42
beta  = 2.5        # trailing comment
gamma = 1e3
delta = hello
)");
    EXPECT_EQ(c.size(), 4u);
    EXPECT_EQ(c.getU64("alpha", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("beta", 0), 2.5);
    EXPECT_DOUBLE_EQ(c.getDouble("gamma", 0), 1000.0);
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
    EXPECT_DOUBLE_EQ(c.getDouble("nope", 0.5), 0.5);
    EXPECT_TRUE(c.has("x"));
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, Errors)
{
    EXPECT_DEATH(parse("no equals sign\n"), "expected 'key = value'");
    EXPECT_DEATH(parse("a = 1\na = 2\n"), "duplicate key");
    EXPECT_DEATH(parse("a = x\n").getU64("a", 0), "non-integer");
    EXPECT_DEATH(parse("a = maybe\n").getDouble("a", 0),
                 "non-numeric");
    EXPECT_DEATH(
        {
            Config c = parse("typo_key = 1\n");
            c.assertConsumed();
        },
        "unknown configuration key 'typo_key'");
}

TEST(Overrides, ApplyToGpuAndMeeParams)
{
    Applied a = applyCli(R"(
gpu.num_sms          = 16
gpu.sm_window        = 24
dram.bytes_per_cycle = 8
mee.mdc_policy       = fifo
trace.classes        = mee,detect
)");
    EXPECT_EQ(a.gpu.numSms, 16u);
    EXPECT_EQ(a.gpu.smWindow, 24u);
    EXPECT_DOUBLE_EQ(a.gpu.dram.bytesPerCycle, 8.0);
    EXPECT_EQ(a.mdcPolicy, mem::PolicyKind::Fifo);
    EXPECT_EQ(a.trace.classMask, trace::parseClassMask("mee,detect"));
}

TEST(Overrides, ReplacementPolicyKeys)
{
    Applied a = applyCli(R"(
cache.policy   = sieve
mee.mdc_policy = s3fifo
)");
    EXPECT_EQ(a.gpu.l2Policy, mem::PolicyKind::Sieve);
    EXPECT_EQ(a.mdcPolicy, mem::PolicyKind::S3Fifo);

    // Defaults stay LRU when the keys are absent.
    Applied d = applyCli("");
    EXPECT_EQ(d.gpu.l2Policy, mem::PolicyKind::Lru);
    EXPECT_EQ(d.mdcPolicy, mem::PolicyKind::Lru);
}

TEST(Overrides, UnknownPolicyNamesTheValidSet)
{
    // The config error must spell out the accepted strings; spelling
    // is case-sensitive like the scheme registry.
    EXPECT_DEATH(applyCli("cache.policy = clock\n"),
                 "<test>:1: unknown replacement policy 'clock' "
                 "\\(expected one of: lru, fifo, random, s3fifo, sieve\\)");
    EXPECT_DEATH(applyCli("mee.mdc_policy = LRU\n"),
                 "unknown replacement policy 'LRU'");
}

// The MEE structure comes from the scheme: every mee.* key but
// mdc_policy is a fatal error located at its line.
TEST(Overrides, MeeStructureKeysAreLocatedFatals)
{
    for (const char *key :
         {"mee.aes_latency", "mee.hash_latency", "mee.bmt_arity",
          "mee.mac_bytes", "mee.static_space_hints",
          "mee.programming_model_hints", "mee.mdc_bytes", "mee.mats",
          "mee.chunk_bytes", "mee.stream_entries", "mee.mat_timeout",
          "mee.ro_entries", "mee.ro_region_bytes"}) {
        SCOPED_TRACE(key);
        EXPECT_DEATH(applyCli(std::string("gpu.num_sms = 8\n") + key +
                              " = 4\n"),
                     std::string("<test>:2: '") + key +
                         "' cannot be overridden here: the MEE "
                         "structure comes from --scheme");
    }
}

// The crypto kernel is the CPU's pick, not a setting: no override
// applier reads crypto.backend, so it is an unknown key, located at
// its line, however valid the keys around it are.
TEST(Overrides, CryptoBackendKey)
{
    EXPECT_DEATH(applyCli("gpu.num_sms = 8\ncrypto.backend = scalar\n"),
                 "<test>:2: unknown configuration key 'crypto.backend'");
}

TEST(Overrides, UnknownCryptoBackendIsFatal)
{
    for (const char *text :
         {"crypto.backend = neon\n", "crypto.backend = auto\n"})
        EXPECT_DEATH(applyCli(text),
                     "unknown configuration key 'crypto.backend'");
}

TEST(Overrides, DefaultsUntouchedWithoutKeys)
{
    Applied a = applyCli("gpu.num_sms = 8\n");
    const Applied d;
    EXPECT_EQ(a.gpu.numSms, 8u);
    EXPECT_EQ(a.gpu.numPartitions, 12u);
    EXPECT_EQ(a.gpu.l2Assoc, d.gpu.l2Assoc);
    EXPECT_DOUBLE_EQ(a.gpu.dram.bytesPerCycle, d.gpu.dram.bytesPerCycle);
    EXPECT_EQ(a.mdcPolicy, mem::PolicyKind::Lru);
    EXPECT_EQ(a.trace.classMask, d.trace.classMask);
}
