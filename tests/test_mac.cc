/**
 * @file
 * Stateful block-/chunk-MAC tests: every bound input must matter, and
 * the configured MAC width clears the paper's birthday bound.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "mee/engine.hh"

using namespace shmgpu::crypto;

namespace
{

class MacTest : public ::testing::Test
{
  protected:
    MacTest() : engine(generateKeys(7).macKey)
    {
        for (std::size_t i = 0; i < block.size(); ++i)
            block[i] = static_cast<std::uint8_t>(i);
    }

    MacEngine engine;
    DataBlock block{};
};

} // namespace

TEST_F(MacTest, Deterministic)
{
    EXPECT_EQ(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 2, 0));
}

TEST_F(MacTest, CiphertextBound)
{
    DataBlock tampered = block;
    tampered[17] ^= 0x01;
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(tampered, 0x100, 1, 2, 0));
}

TEST_F(MacTest, AddressBoundAgainstSplicing)
{
    // Moving a valid (ciphertext, MAC) pair to another address must
    // not verify: the address is part of the MAC state.
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x180, 1, 2, 0));
}

TEST_F(MacTest, CounterBoundAgainstReplay)
{
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 2, 2, 0));
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 3, 0));
}

TEST_F(MacTest, PartitionBound)
{
    EXPECT_NE(engine.blockMac(block, 0x100, 1, 2, 0),
              engine.blockMac(block, 0x100, 1, 2, 1));
}

TEST_F(MacTest, ChunkMacCoversEveryBlockMac)
{
    std::vector<Mac> macs;
    for (int i = 0; i < 32; ++i)
        macs.push_back(engine.blockMac(block, 0x1000 + i * 128, 0, 0, 0));

    Mac whole = engine.chunkMac(macs, 0x1000, 0);
    for (std::size_t i = 0; i < macs.size(); ++i) {
        std::vector<Mac> changed = macs;
        changed[i] ^= 1;
        EXPECT_NE(engine.chunkMac(changed, 0x1000, 0), whole)
            << "block " << i << " not covered";
    }
}

TEST_F(MacTest, ChunkMacOrderSensitive)
{
    std::vector<Mac> macs = {1, 2, 3, 4};
    std::vector<Mac> swapped = {2, 1, 3, 4};
    EXPECT_NE(engine.chunkMac(macs, 0, 0),
              engine.chunkMac(swapped, 0, 0));
}

TEST_F(MacTest, ChunkMacAddressBound)
{
    std::vector<Mac> macs = {1, 2, 3, 4};
    EXPECT_NE(engine.chunkMac(macs, 0x1000, 0),
              engine.chunkMac(macs, 0x2000, 0));
}

// Section III-C: a 4 GiB device holds 2^25 blocks of 128 B, and a
// b-bit MAC collides after about 2^(b/2) writes, so the MAC needs at
// least 2 * 25 = 50 bits. The default 8 B MAC clears the bound; the
// 4 B PSSM-style width of the short-MAC ablation
// (ablation_extensions.short_macs_save in bench/figures.cc) does not.
TEST(MacTruncation, BirthdayBoundMatchesPaper)
{
    constexpr std::uint64_t blocks = (4ull << 30) / 128;
    constexpr unsigned min_bits = 2 * std::countr_zero(blocks);
    static_assert(std::has_single_bit(blocks) && min_bits == 50);
    EXPECT_GE(shmgpu::mee::MeeParams{}.macBytes * 8, min_bits);
    EXPECT_LT(4u * 8, min_bits);
}
