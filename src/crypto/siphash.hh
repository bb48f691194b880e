/**
 * @file
 * SipHash-2-4: a fast keyed 64-bit PRF, used here as the 8-byte MAC
 * primitive and as the hash for Bonsai-Merkle-Tree nodes.
 *
 * Reference: Aumasson & Bernstein, "SipHash: a fast short-input PRF".
 */

#ifndef SHMGPU_CRYPTO_SIPHASH_HH
#define SHMGPU_CRYPTO_SIPHASH_HH

#include <cstddef>
#include <cstdint>

namespace shmgpu::crypto
{

/** A 128-bit SipHash key. */
struct SipKey
{
    std::uint64_t k0 = 0;
    std::uint64_t k1 = 0;

    bool operator==(const SipKey &) const = default;
};

/** Compute SipHash-2-4 of @p len bytes at @p data under @p key. */
std::uint64_t siphash24(const SipKey &key, const void *data,
                        std::size_t len);

/**
 * Incremental variant for hashing several fields (address, counter,
 * ciphertext...) without building a contiguous buffer.
 */
class SipHasher
{
  public:
    explicit SipHasher(const SipKey &key);

    /** Absorb raw bytes. */
    SipHasher &update(const void *data, std::size_t len);

    /** Absorb one little-endian 64-bit word. */
    SipHasher &updateU64(std::uint64_t v);

    /** Finalize; the hasher must not be reused afterwards. */
    std::uint64_t digest();

  private:
    void round();
    void compress(std::uint64_t m);

    std::uint64_t v0, v1, v2, v3;
    std::uint8_t buf[8];
    std::size_t bufLen = 0;
    std::uint64_t totalLen = 0;
    bool finalized = false;
};

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_SIPHASH_HH
