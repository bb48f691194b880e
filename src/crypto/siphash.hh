/**
 * @file
 * SipHash-2-4: a fast keyed 64-bit PRF, used here as the 8-byte MAC
 * primitive and as the hash for Bonsai-Merkle-Tree nodes.
 *
 * Header-inline, so a local hasher's four state words live in
 * registers. Every message the MEE hashes is a whole number of 64-bit
 * words (block MACs, chunk MACs, BMT leaves, nodes and root), so
 * those callers use SipState directly: one compress per word and the
 * length byte at the end, no byte buffer. SipHasher adds the byte
 * buffer for arbitrary lengths; both produce the reference digests
 * (tests/test_siphash.cc). The AVX2 4-lane block-MAC kernel
 * (crypto/mac.cc) runs the same rounds on four messages at once.
 *
 * Reference: Aumasson & Bernstein, "SipHash: a fast short-input PRF".
 */

#ifndef SHMGPU_CRYPTO_SIPHASH_HH
#define SHMGPU_CRYPTO_SIPHASH_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

namespace shmgpu::crypto
{

/** A 128-bit SipHash key. */
struct SipKey
{
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;

    bool operator==(const SipKey &) const = default;
};

/** Load the little-endian 64-bit word at @p p. */
inline std::uint64_t
loadLe64(const void *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

/**
 * The SipHash-2-4 state over a message of whole little-endian words:
 * word() compresses one, finish() appends the length block and runs
 * the finalization rounds.
 */
class SipState
{
  public:
    explicit SipState(const SipKey &key)
        : v0(0x736f6d6570736575ull ^ key.k0),
          v1(0x646f72616e646f6dull ^ key.k1),
          v2(0x6c7967656e657261ull ^ key.k0),
          v3(0x7465646279746573ull ^ key.k1)
    {
    }

    /** Absorb one message word. */
    void
    word(std::uint64_t m)
    {
        v3 ^= m;
        round();
        round();
        v0 ^= m;
    }

    /**
     * Absorb the last block — @p tail, the message's final 0-7 bytes
     * as a little-endian word — and return the digest of a
     * @p total_bytes message.
     */
    std::uint64_t
    finish(std::uint64_t total_bytes, std::uint64_t tail = 0)
    {
        word(tail | (total_bytes << 56));
        v2 ^= 0xff;
        round();
        round();
        round();
        round();
        return v0 ^ v1 ^ v2 ^ v3;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int b)
    {
        return (x << b) | (x >> (64 - b));
    }

    void
    round()
    {
        v0 += v1; v1 = rotl(v1, 13); v1 ^= v0; v0 = rotl(v0, 32);
        v2 += v3; v3 = rotl(v3, 16); v3 ^= v2;
        v0 += v3; v3 = rotl(v3, 21); v3 ^= v0;
        v2 += v1; v1 = rotl(v1, 17); v1 ^= v2; v2 = rotl(v2, 32);
    }

    std::uint64_t v0, v1, v2, v3;
};

/**
 * Incremental variant for hashing several fields (address, counter,
 * ciphertext...) of any byte length without building a contiguous
 * buffer.
 */
class SipHasher
{
  public:
    explicit SipHasher(const SipKey &key) : state(key) {}

    /** Absorb raw bytes. */
    SipHasher &
    update(const void *data, std::size_t len)
    {
        shm_assert(!finalized, "SipHasher reused after digest()");
        if (len == 0)
            return *this;
        const auto *p = static_cast<const std::uint8_t *>(data);
        totalLen += len;
        if (bufLen > 0) {
            const std::size_t take = std::min(len, 8 - bufLen);
            std::memcpy(buf + bufLen, p, take);
            bufLen += take;
            p += take;
            len -= take;
            if (bufLen < 8)
                return *this;
            state.word(loadLe64(buf));
            bufLen = 0;
        }
        for (; len >= 8; p += 8, len -= 8)
            state.word(loadLe64(p));
        std::memcpy(buf, p, len);
        bufLen = len;
        return *this;
    }

    /** Absorb one little-endian 64-bit word. */
    SipHasher &
    updateU64(std::uint64_t v)
    {
        if (bufLen > 0) {
            std::uint8_t le[8];
            for (int i = 0; i < 8; ++i)
                le[i] = static_cast<std::uint8_t>(v >> (8 * i));
            return update(le, sizeof(le));
        }
        // Word-aligned: the word is the next message block as is.
        shm_assert(!finalized, "SipHasher reused after digest()");
        totalLen += 8;
        state.word(v);
        return *this;
    }

    /** Finalize; the hasher must not be reused afterwards. */
    std::uint64_t
    digest()
    {
        shm_assert(!finalized, "SipHasher reused after digest()");
        finalized = true;
        // Final block: the buffered bytes zero-padded, last byte =
        // total length mod 256 (finish() keeps only its low byte).
        std::uint8_t last[8] = {};
        std::memcpy(last, buf, bufLen);
        return state.finish(totalLen & 0xff, loadLe64(last));
    }

  private:
    SipState state;
    std::uint8_t buf[8] = {};
    std::size_t bufLen = 0;
    std::uint64_t totalLen = 0;
    bool finalized = false;
};

/** Compute SipHash-2-4 of @p len bytes at @p data under @p key. */
inline std::uint64_t
siphash24(const SipKey &key, const void *data, std::size_t len)
{
    SipHasher h(key);
    h.update(data, len);
    return h.digest();
}

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_SIPHASH_HH
