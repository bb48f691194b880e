/**
 * @file
 * Batched AES-128 encryption with runtime CPU dispatch.
 *
 * Counter-mode pad generation encrypts many independent blocks under
 * one key, so the dominant cost is not one AES round but the latency
 * chain of ten rounds per block. Keeping 4 or 8 blocks in flight hides
 * that chain: the AES-NI path pipelines 8 xmm states through each
 * round, and the scalar path simply loops the reference T-table
 * cipher. The CPU picks the path (crypto/dispatch.hh); both compute
 * exactly FIPS-197 AES-128, which the differential fuzz in
 * tests/test_crypto_batch.cc verifies byte for byte against the
 * scalar Aes128.
 */

#ifndef SHMGPU_CRYPTO_AES128_BATCH_HH
#define SHMGPU_CRYPTO_AES128_BATCH_HH

#include <cstddef>

#include "crypto/aes128.hh"
#include "crypto/dispatch.hh"

namespace shmgpu::crypto
{

/** AES-128 over batches of independent blocks, one fixed key. */
class Aes128Batch
{
  public:
    /** Expand @p key once; the kernel is activeBackend()'s. */
    explicit Aes128Batch(const Block16 &key);

    /**
     * Encrypt @p n independent blocks from @p in to @p out (in == out
     * is allowed). Any @p n works; full groups of 8 (and 4) take the
     * wide path, the ragged tail is finished one block at a time.
     */
    void encryptBlocks(const Block16 *in, Block16 *out,
                       std::size_t n) const;

    /** Encrypt one block (convenience; tail path). */
    Block16
    encrypt(const Block16 &in) const
    {
        Block16 out;
        encryptBlocks(&in, &out, 1);
        return out;
    }

  private:
    Aes128 scalar; //!< reference cipher; owns the key schedule
    Backend impl;
};

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_AES128_BATCH_HH
