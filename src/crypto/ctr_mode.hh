/**
 * @file
 * Counter-mode encryption engine for 128-byte memory blocks.
 *
 * Implements the seed construction of Fig. 3 of the paper:
 *
 *   not-read-only data:  seed = { local addr, major ctr, minor ctr, CID }
 *   read-only data:      seed = { local addr, shared ctr, zero pad, CID }
 *
 * A 128 B cache block is split into eight 16 B chunks; each chunk gets
 * its own AES invocation with a distinct chunk id (CID) so pads never
 * repeat spatially. The pad (OTP) is XORed with plaintext/ciphertext.
 */

#ifndef SHMGPU_CRYPTO_CTR_MODE_HH
#define SHMGPU_CRYPTO_CTR_MODE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "crypto/aes128.hh"
#include "crypto/aes128_batch.hh"

namespace shmgpu::crypto
{

/** Bytes per protected memory block (one cache line). */
constexpr std::size_t blockBytes = 128;

/** Bytes produced per AES invocation. */
constexpr std::size_t aesChunkBytes = 16;

/** AES invocations per memory block. */
constexpr std::size_t chunksPerBlock = blockBytes / aesChunkBytes;

/** A full 128-byte data block. */
using DataBlock = std::array<std::uint8_t, blockBytes>;

/**
 * The encryption seed components. Spatial uniqueness comes from
 * (address, chunk id); temporal uniqueness from the counters.
 */
struct Seed
{
    LocalAddr address = 0;      //!< partition-local block address
    std::uint64_t major = 0;    //!< major counter (or shared counter)
    std::uint64_t minor = 0;    //!< minor counter (zero pad if read-only)
    std::uint32_t partition = 0; //!< partition id (spatial uniqueness
                                 //!< across partitions for PSSM addressing)
};

/** Counter-mode encryption/decryption engine with a fixed key. */
class CtrModeEngine
{
  public:
    explicit CtrModeEngine(const Block16 &key);

    /** Generate the 128 B one-time pad for @p seed. The eight chunk
     *  seeds go through one batched AES call. */
    DataBlock generatePad(const Seed &seed) const;

    /** Encrypt (or decrypt: the operation is an involution) in place. */
    void transform(DataBlock &data, const Seed &seed) const;

    /** Out-of-place transform convenience. */
    DataBlock transformed(const DataBlock &data, const Seed &seed) const;

    /**
     * Pads for @p n seeds at once — the OTP-generation batch the MEE
     * collects per epoch burst. The chunk seeds are packed with word
     * stores and encrypted through the batched AES backend in on-stack
     * groups of eight blocks (64 AES blocks); nothing is allocated.
     */
    void generatePads(const Seed *seeds, DataBlock *pads,
                      std::size_t n) const;

    /** In-place transform of @p n blocks: each group's pads are
     *  generated as in generatePads() and XORed in place. */
    void transformBatch(DataBlock *blocks, const Seed *seeds,
                        std::size_t n) const;

  private:
    Aes128Batch aes;
};

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_CTR_MODE_HH
