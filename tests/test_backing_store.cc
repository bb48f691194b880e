/**
 * @file
 * Backing-store tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/backing_store.hh"

using namespace shmgpu;
using namespace shmgpu::mem;
using shmgpu::crypto::DataBlock;

namespace
{
constexpr std::uint64_t kBytes = 64 * 1024;
} // namespace

TEST(BackingStore, ReadsZeroWhenUntouched)
{
    BackingStore s(kBytes);
    EXPECT_EQ(s.size(), kBytes);
    std::vector<std::uint8_t> image(kBytes, 0xFF);
    s.read(0, image.data(), image.size());
    for (auto byte : image)
        ASSERT_EQ(byte, 0);
}

TEST(BackingStore, WriteReadRoundTrip)
{
    BackingStore s(kBytes);
    DataBlock b;
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<std::uint8_t>(i + 1);
    s.writeBlock(0x1000, b);
    EXPECT_EQ(s.readBlock(0x1000), b);
    // Only that block changed: its neighbours still read zero.
    EXPECT_EQ(s.readBlock(0x1000 - 128), DataBlock{});
    EXPECT_EQ(s.readBlock(0x1000 + 128), DataBlock{});
}

TEST(BackingStore, UnalignedAddressResolvesToBlock)
{
    BackingStore s(kBytes);
    DataBlock b{};
    b[0] = 0xAA;
    s.writeBlock(0x1010, b); // aligns down to 0x1000
    EXPECT_EQ(s.readBlock(0x1000)[0], 0xAA);
}

TEST(BackingStore, ByteRangeSpanningBlocks)
{
    BackingStore s(kBytes);
    std::uint8_t data[300];
    for (int i = 0; i < 300; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    s.write(0x1070, data, sizeof(data)); // crosses three blocks

    std::uint8_t out[300];
    s.read(0x1070, out, sizeof(out));
    EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
}

TEST(BackingStore, CorruptByteFlipsExactlyOneByte)
{
    BackingStore s(kBytes);
    DataBlock b{};
    s.writeBlock(0, b);
    s.corruptByte(5, 0x80);
    DataBlock out = s.readBlock(0);
    EXPECT_EQ(out[5], 0x80);
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i != 5) {
            EXPECT_EQ(out[i], 0);
        }
    }
    // Corrupting again restores (XOR).
    s.corruptByte(5, 0x80);
    EXPECT_EQ(s.readBlock(0)[5], 0);
}

TEST(BackingStore, SizeRoundsUpToWholeBlocks)
{
    BackingStore s(1000);
    EXPECT_EQ(s.size(), 1024u);
    EXPECT_EQ(s.readBlock(1000), DataBlock{});
}

TEST(BackingStore, AccessBeyondSizePanics)
{
    BackingStore s(kBytes);
    std::uint8_t byte = 0;
    EXPECT_DEATH(s.readBlock(kBytes), "address 65536 beyond its 65536");
    EXPECT_DEATH(s.writeBlock(kBytes + 4096, DataBlock{}),
                 "beyond its 65536");
    EXPECT_DEATH(s.read(kBytes - 1, &byte, 2), "beyond its 65536");
    EXPECT_DEATH(s.write(kBytes, &byte, 1), "beyond its 65536");
    EXPECT_DEATH(s.corruptByte(kBytes), "beyond its 65536");
    // The last byte is still inside.
    s.corruptByte(kBytes - 1, 0x01);
    EXPECT_EQ(s.readBlock(kBytes - 1)[127], 0x01);
}
