#include "crypto/cmac.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::crypto
{

namespace
{

/** Left-shift a 128-bit big-endian value by one bit. */
Block16
shiftLeft(const Block16 &in)
{
    Block16 out{};
    std::uint8_t carry = 0;
    for (int i = 15; i >= 0; --i) {
        out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
        carry = static_cast<std::uint8_t>(in[i] >> 7);
    }
    return out;
}

/** CMAC subkey step: doubling in GF(2^128) with R128 = 0x87. */
Block16
gfDouble(const Block16 &in)
{
    Block16 out = shiftLeft(in);
    if (in[0] & 0x80)
        out[15] ^= 0x87;
    return out;
}

void
xorInto(Block16 &acc, const std::uint8_t *src, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        acc[i] ^= src[i];
}

} // namespace

AesCmac::AesCmac(const Block16 &key) : aes(key)
{
    // SP 800-38B subkey generation: L = AES(0); K1 = 2L; K2 = 4L.
    Block16 zero{};
    Block16 l = aes.encrypt(zero);
    k1 = gfDouble(l);
    k2 = gfDouble(k1);
}

Block16
AesCmac::mac(const void *data, std::size_t len) const
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    Block16 x{}; // CBC state

    std::size_t full_blocks = len / 16;
    bool last_complete = (len > 0) && (len % 16 == 0);
    std::size_t body = last_complete ? full_blocks - 1 : full_blocks;

    for (std::size_t b = 0; b < body; ++b) {
        xorInto(x, bytes + b * 16, 16);
        x = aes.encrypt(x);
    }

    // Final block: complete -> XOR K1; partial -> 10* pad, XOR K2.
    Block16 last{};
    if (last_complete) {
        std::memcpy(last.data(), bytes + body * 16, 16);
        for (int i = 0; i < 16; ++i)
            last[i] ^= k1[i];
    } else {
        std::size_t rem = len - body * 16;
        // The empty message may come as (nullptr, 0): copy nothing.
        if (rem > 0)
            std::memcpy(last.data(), bytes + body * 16, rem);
        last[rem] = 0x80;
        for (int i = 0; i < 16; ++i)
            last[i] ^= k2[i];
    }
    xorInto(x, last.data(), 16);
    return aes.encrypt(x);
}

std::uint64_t
AesCmac::mac64(const void *data, std::size_t len) const
{
    Block16 tag = mac(data, len);
    std::uint64_t out = 0;
    for (int i = 0; i < 8; ++i)
        out |= static_cast<std::uint64_t>(tag[i]) << (8 * i);
    return out;
}

std::uint64_t
truncateMac(std::uint64_t tag, unsigned bits)
{
    shm_assert(bits >= 1 && bits <= 64, "MAC width {} out of range",
               bits);
    if (bits == 64)
        return tag;
    return tag & ((std::uint64_t{1} << bits) - 1);
}

double
collisionExponent(unsigned mac_bits)
{
    return mac_bits / 2.0;
}

unsigned
minimumMacBits(std::uint64_t protected_bytes, std::uint32_t block_bytes)
{
    // 2^(n/2) must exceed the number of protected blocks.
    std::uint64_t blocks = protected_bytes / block_bytes;
    return 2 * ceilLog2(blocks);
}

} // namespace shmgpu::crypto
