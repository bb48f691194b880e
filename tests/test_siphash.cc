/**
 * @file
 * SipHash-2-4 reference-vector and incremental-interface tests.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "crypto/siphash.hh"

using namespace shmgpu::crypto;

namespace
{

/** The reference key 000102...0f as two little-endian words. */
SipKey
referenceKey()
{
    return {0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull};
}

/**
 * The oracle: SipHash-2-4 absorbing one byte at a time through an
 * 8-byte buffer, the way the library did before its word path.
 */
class ByteSipHasher
{
  public:
    explicit ByteSipHasher(const SipKey &key)
        : v0(0x736f6d6570736575ull ^ key.k0),
          v1(0x646f72616e646f6dull ^ key.k1),
          v2(0x6c7967656e657261ull ^ key.k0),
          v3(0x7465646279746573ull ^ key.k1)
    {
    }

    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        totalLen += len;
        while (len-- > 0) {
            buf[bufLen++] = *p++;
            if (bufLen == 8) {
                compress(word(buf));
                bufLen = 0;
            }
        }
    }

    std::uint64_t
    digest()
    {
        std::uint8_t last[8] = {};
        for (std::size_t i = 0; i < bufLen; ++i)
            last[i] = buf[i];
        last[7] = static_cast<std::uint8_t>(totalLen & 0xff);
        compress(word(last));
        v2 ^= 0xff;
        for (int i = 0; i < 4; ++i)
            round();
        return v0 ^ v1 ^ v2 ^ v3;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int b)
    {
        return (x << b) | (x >> (64 - b));
    }

    static std::uint64_t
    word(const std::uint8_t *p)
    {
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | p[i];
        return v;
    }

    void
    round()
    {
        v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
        v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
        v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
        v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
    }

    void
    compress(std::uint64_t m)
    {
        v3 ^= m;
        round();
        round();
        v0 ^= m;
    }

    std::uint64_t v0, v1, v2, v3;
    std::uint8_t buf[8];
    std::size_t bufLen = 0;
    std::uint64_t totalLen = 0;
};

std::uint64_t
oracle(const SipKey &key, const std::uint8_t *data, std::size_t len)
{
    ByteSipHasher h(key);
    h.update(data, len);
    return h.digest();
}

} // namespace

// First entries of the official SipHash-2-4 test-vector table
// (Aumasson & Bernstein reference implementation, vectors_sip64):
// input is 00, 01, 02, ... of increasing length.
TEST(SipHash, ReferenceVectors)
{
    const std::uint64_t expected[] = {
        0x726fdb47dd0e0e31ull, // len 0
        0x74f839c593dc67fdull, // len 1
        0x0d6c8009d9a94f5aull, // len 2
        0x85676696d7fb7e2dull, // len 3
        0xcf2794e0277187b7ull, // len 4
        0x18765564cd99a68dull, // len 5
        0xcbc9466e58fee3ceull, // len 6
        0xab0200f58b01d137ull, // len 7
        0x93f5f5799a932462ull, // len 8
        0x9e0082df0ba9e4b0ull, // len 9
    };
    std::uint8_t data[16];
    for (int i = 0; i < 16; ++i)
        data[i] = static_cast<std::uint8_t>(i);

    for (std::size_t len = 0; len < std::size(expected); ++len) {
        // The byte path...
        EXPECT_EQ(siphash24(referenceKey(), data, len), expected[len])
            << "length " << len;
        // ...and the word path: whole words, then the 0-7 tail bytes
        // in the length block.
        SipState words(referenceKey());
        std::size_t off = 0;
        for (; off + 8 <= len; off += 8)
            words.word(loadLe64(data + off));
        std::uint8_t tail[8] = {};
        std::memcpy(tail, data + off, len - off);
        EXPECT_EQ(words.finish(len, loadLe64(tail)), expected[len])
            << "length " << len << ", word path";
    }
}

TEST(SipHash, IncrementalMatchesOneShot)
{
    std::uint8_t data[40];
    for (int i = 0; i < 40; ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);

    std::uint64_t oneshot = siphash24(referenceKey(), data, sizeof(data));

    SipHasher h(referenceKey());
    h.update(data, 3);
    h.update(data + 3, 20);
    h.update(data + 23, 17);
    EXPECT_EQ(h.digest(), oneshot);
}

TEST(SipHash, UpdateU64MatchesBytes)
{
    std::uint64_t v = 0x1122334455667788ull;
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));

    SipHasher a(referenceKey());
    a.updateU64(v);
    SipHasher b(referenceKey());
    b.update(bytes, 8);
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(SipHash, KeySeparation)
{
    std::uint8_t data[4] = {1, 2, 3, 4};
    SipKey k1{1, 2};
    SipKey k2{1, 3};
    EXPECT_NE(siphash24(k1, data, 4), siphash24(k2, data, 4));
}

TEST(SipHash, LengthSeparation)
{
    // Same prefix, different lengths => different tags (length is
    // folded into the final block).
    std::uint8_t data[9] = {};
    EXPECT_NE(siphash24(referenceKey(), data, 8),
              siphash24(referenceKey(), data, 9));
}

TEST(SipHash, ReuseAfterDigestPanics)
{
    // The buffer is empty at digest(), so the second word would take
    // the word-aligned fast path: the check must sit there too.
    SipHasher h(referenceKey());
    h.updateU64(1);
    h.digest();
    EXPECT_DEATH(h.updateU64(2), "reused");
    EXPECT_DEATH(h.update("x", 1), "reused");

    SipHasher ragged(referenceKey());
    ragged.update("abc", 3);
    ragged.digest();
    EXPECT_DEATH(ragged.updateU64(2), "reused");
}

TEST(SipHash, WordPathMatchesByteOracleAtEveryLength)
{
    shmgpu::Rng rng(17);
    const SipKey key{rng.next(), rng.next()};
    std::vector<std::uint8_t> data(256);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.next());
        const std::uint64_t want = oracle(key, data.data(), len);
        ASSERT_EQ(siphash24(key, data.data(), len), want)
            << "one-shot, length " << len;

        // Random split points, including empty pieces.
        for (int trial = 0; trial < 4; ++trial) {
            SipHasher h(key);
            std::size_t off = 0;
            while (off < len) {
                std::size_t piece = rng.below(std::min<std::size_t>(
                                        len - off, 20) + 1);
                h.update(data.data() + off, piece);
                off += piece;
            }
            ASSERT_EQ(h.digest(), want)
                << "length " << len << ", trial " << trial;
        }
    }
}

TEST(SipHash, UpdateU64AfterRaggedPrefixMatchesOracle)
{
    // updateU64 after 0..7 buffered bytes (and again after whole
    // words), against the byte oracle fed the same little-endian
    // image.
    shmgpu::Rng rng(23);
    const SipKey key{rng.next(), rng.next()};
    for (std::size_t prefix = 0; prefix < 24; ++prefix) {
        std::uint8_t head[24];
        for (auto &byte : head)
            byte = static_cast<std::uint8_t>(rng.next());
        std::uint64_t words[3];
        for (auto &w : words)
            w = rng.next();

        SipHasher h(key);
        ByteSipHasher ref(key);
        h.update(head, prefix);
        ref.update(head, prefix);
        for (std::uint64_t w : words) {
            h.updateU64(w);
            std::uint8_t le[8];
            for (int i = 0; i < 8; ++i)
                le[i] = static_cast<std::uint8_t>(w >> (8 * i));
            ref.update(le, 8);
        }
        h.update(head, prefix % 8);
        ref.update(head, prefix % 8);
        ASSERT_EQ(h.digest(), ref.digest()) << "prefix " << prefix;
    }
}
