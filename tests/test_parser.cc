/**
 * @file
 * Workload-description parser tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "workload/parser.hh"

using namespace shmgpu;
using namespace shmgpu::workload;

namespace
{

WorkloadSpec
parse(const std::string &text)
{
    std::istringstream is(text);
    return parseWorkload(is, "<test>");
}

const char *kSaxpy = R"(
# a simple saxpy-like kernel
workload saxpy
seed 3
band 40 60
buffer x 8M global
buffer y 8M global
buffer coeffs 64K constant

kernel saxpy_kernel iters=4096 compute=6 window=32
  copy x
  copy coeffs declared
  read x stream
  read coeffs hot 0.5 0.9 p=0.25
  write y stream
)";

} // namespace

TEST(Parser, ParsesFullExample)
{
    WorkloadSpec w = parse(kSaxpy);
    EXPECT_EQ(w.name, "saxpy");
    EXPECT_EQ(w.seed, 3u);
    EXPECT_DOUBLE_EQ(w.bwUtilLo, 0.40);
    EXPECT_DOUBLE_EQ(w.bwUtilHi, 0.60);

    ASSERT_EQ(w.buffers.size(), 3u);
    EXPECT_EQ(w.buffers[0].bytes, 8u << 20);
    EXPECT_EQ(w.buffers[2].bytes, 64u << 10);
    EXPECT_EQ(w.buffers[2].space, MemSpace::Constant);

    ASSERT_EQ(w.kernels.size(), 1u);
    const KernelSpec &k = w.kernels[0];
    EXPECT_EQ(k.iterationsPerSm, 4096u);
    EXPECT_EQ(k.computePerMem, 6u);
    EXPECT_EQ(k.maxOutstanding, 32u);

    ASSERT_EQ(k.preCopies.size(), 2u);
    EXPECT_FALSE(k.preCopies[0].declaredReadOnly);
    EXPECT_TRUE(k.preCopies[1].declaredReadOnly);

    ASSERT_EQ(k.streams.size(), 3u);
    EXPECT_EQ(k.streams[0].pattern, Pattern::Streaming);
    EXPECT_FALSE(k.streams[0].write);
    EXPECT_EQ(k.streams[1].pattern, Pattern::RandomHot);
    EXPECT_DOUBLE_EQ(k.streams[1].hotFraction, 0.5);
    EXPECT_DOUBLE_EQ(k.streams[1].prob, 0.25);
    EXPECT_TRUE(k.streams[2].write);
}

TEST(Parser, SizeSuffixes)
{
    EXPECT_EQ(parseSize("4096"), 4096u);
    EXPECT_EQ(parseSize("4K"), 4096u);
    EXPECT_EQ(parseSize("2M"), 2u << 20);
    EXPECT_EQ(parseSize("1G"), 1u << 30);
    EXPECT_EQ(parseSize("3m"), 3u << 20);
}

TEST(Parser, StridedPattern)
{
    WorkloadSpec w = parse(R"(
workload s
buffer m 1M
kernel k iters=16 compute=1
  read m strided 16 p=0.5
)");
    ASSERT_EQ(w.kernels[0].streams.size(), 1u);
    EXPECT_EQ(w.kernels[0].streams[0].pattern, Pattern::Strided);
    EXPECT_EQ(w.kernels[0].streams[0].strideSectors, 16u);
    EXPECT_DOUBLE_EQ(w.kernels[0].streams[0].prob, 0.5);
}

TEST(Parser, ZipfPattern)
{
    WorkloadSpec w = parse(R"(
workload z
buffer table 1M
kernel lookup iters=16 compute=1
  read table zipf 0.9 p=0.5
)");
    ASSERT_EQ(w.kernels[0].streams.size(), 1u);
    EXPECT_EQ(w.kernels[0].streams[0].pattern, Pattern::Zipf);
    EXPECT_DOUBLE_EQ(w.kernels[0].streams[0].zipfAlpha, 0.9);
    EXPECT_DOUBLE_EQ(w.kernels[0].streams[0].prob, 0.5);

    // Alpha is mandatory, and validation bounds it.
    EXPECT_DEATH(parse("workload z\nbuffer b 1M\nkernel k iters=1\n"
                       "  read b zipf\n"),
                 "at least 3 arguments");
    EXPECT_DEATH(parse("workload z\nbuffer b 1M\nkernel k iters=1\n"
                       "  read b zipf 99\n"),
                 "zipf alpha");
}

TEST(Parser, ErrorsCarryFileAndLine)
{
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nfrobnicate\n"),
                 "<test>:3: unknown directive 'frobnicate'");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nkernel k iters=1\n"
                       "  read nosuch stream\n"),
                 "unknown buffer 'nosuch'");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nkernel k iters=1\n"
                       "  read b stream p=2.0\n"),
                 "outside");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\n  read b stream\n"),
                 "before any kernel");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nbuffer b 2M\n"),
                 "duplicate buffer");
}

TEST(Parser, ValidatesResult)
{
    // Parses syntactically but fails semantic validation (no kernels),
    // located at the last line read.
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\n"),
                 "<test>:2: workload 'w' declares no kernels");
}

// Every malformed number is a located error: no uncaught exception
// from a real, no negative count wrapping, no silent size overflow.
TEST(Parser, MalformedNumbersAreLocated)
{
    EXPECT_DEATH(parse("workload w\nband forty 60\n"),
                 "<test>:2: bad number 'forty'");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nkernel k iters=1\n"
                       "  read b hot x 0.5\n"),
                 "<test>:4: bad number 'x'");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nkernel k iters=1\n"
                       "  read b stream p=nan\n"),
                 "<test>:4: bad number 'nan'");
    EXPECT_DEATH(parse("workload w\nbuffer b 1M\nkernel k iters=-1\n"),
                 "<test>:3: bad number '-1'");
    EXPECT_DEATH(parse("workload w\nbuffer b 99999999999G\n"),
                 "<test>:2: size '99999999999G' overflows 64 bits");
}
