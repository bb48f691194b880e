/**
 * @file
 * Bit-manipulation helper tests.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

using namespace shmgpu;

TEST(BitOps, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 63));
    EXPECT_FALSE(isPowerOf2((1ull << 63) + 1));
}

TEST(BitOps, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ull << 40), 40u);
}

TEST(BitOps, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(6000), 13u); // Table IX timeout counter
    EXPECT_EQ(ceilLog2(32), 5u);    // Table IX access counter
}

TEST(BitOps, Align)
{
    EXPECT_EQ(alignDown(127, 128), 0u);
    EXPECT_EQ(alignDown(128, 128), 128u);
    EXPECT_EQ(alignUp(1, 128), 128u);
    EXPECT_EQ(alignUp(128, 128), 128u);
    EXPECT_EQ(alignUp(0, 128), 0u);
}

TEST(BitOps, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(BitOps, Bits)
{
    EXPECT_EQ(bits(0xFF00, 8, 8), 0xFFu);
    EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

TEST(BitOps, ExactDividerMatchesDivision)
{
    // Every divisor 1..64 plus large and extreme ones, against random
    // full-range numerators and the edges around multiples of d.
    std::vector<std::uint64_t> divisors;
    for (std::uint64_t d = 1; d <= 64; ++d)
        divisors.push_back(d);
    for (std::uint64_t d : {1000ull, 4096ull, 0x9E3779B9ull,
                            (1ull << 32) + 1, 1ull << 63,
                            (1ull << 63) + 1, ~0ull - 1, ~0ull})
        divisors.push_back(d);
    Rng rng(2024);
    for (std::uint64_t d : divisors) {
        const ExactDivider div(d);
        std::vector<std::uint64_t> ns = {0, 1, d - 1, d, d + 1,
                                         ~0ull, ~0ull - 1, ~0ull - d};
        const std::uint64_t top = ~0ull / d;
        for (std::uint64_t k : {std::uint64_t{2}, top / 2, top}) {
            ns.push_back(k * d - 1);
            ns.push_back(k * d);
        }
        for (int i = 0; i < 2000; ++i) {
            ns.push_back(rng.next());
            ns.push_back(rng.next() >> rng.below(64));
        }
        for (std::uint64_t n : ns) {
            ASSERT_EQ(div.quot(n), n / d) << n << " / " << d;
            ASSERT_EQ(div.rem(n), n % d) << n << " % " << d;
        }
    }
}
