/**
 * @file
 * AES-CMAC (NIST SP 800-38B / RFC 4493).
 *
 * An alternative 128-bit-block MAC primitive to SipHash: real secure
 * memories (e.g. SGX's MEE) build their tags from AES-class
 * primitives, and having a second implementation behind the same
 * interface keeps the MAC engine honest about what it assumes.
 * Tags can be truncated; truncateMac()/collisionExponent() capture the
 * birthday-bound argument the paper makes against short MACs
 * (Section III-C).
 */

#ifndef SHMGPU_CRYPTO_CMAC_HH
#define SHMGPU_CRYPTO_CMAC_HH

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.hh"
#include "crypto/aes128_batch.hh"

namespace shmgpu::crypto
{

/** AES-CMAC with a fixed key (subkeys derived once). */
class AesCmac
{
  public:
    explicit AesCmac(const Block16 &key);

    /** Full 128-bit tag over @p len bytes at @p data. */
    Block16 mac(const void *data, std::size_t len) const;

    /** First 64 bits of the tag (the 8 B format used off-chip). */
    std::uint64_t mac64(const void *data, std::size_t len) const;

  private:
    Aes128Batch aes;
    Block16 k1; //!< subkey for complete final blocks
    Block16 k2; //!< subkey for padded final blocks
};

/** Keep only the low @p bits of a tag (e.g. PSSM's 32-bit MACs). */
std::uint64_t truncateMac(std::uint64_t tag, unsigned bits);

/**
 * Birthday bound: with an n-bit MAC a collision is expected after
 * about 2^(n/2) observations. Returns n/2 — the security exponent the
 * paper compares against the 2^25 memory blocks of a 4 GB device
 * (Section III-C concludes n must be at least ~50).
 */
double collisionExponent(unsigned mac_bits);

/**
 * Smallest MAC width (in bits) whose birthday bound exceeds the
 * number of blocks in @p protected_bytes of memory with
 * @p block_bytes blocks — the paper's minimum-MAC-size argument.
 */
unsigned minimumMacBits(std::uint64_t protected_bytes,
                        std::uint32_t block_bytes);

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_CMAC_HH
