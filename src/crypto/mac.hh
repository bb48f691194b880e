/**
 * @file
 * Stateful 8-byte MACs over memory blocks and 4 KB chunks.
 *
 * Following the stateful-MAC scheme (Rogers et al., MICRO'07) adopted
 * by the paper, a block MAC binds the ciphertext to its address and its
 * encryption counters so that splicing and counter-tampering are
 * caught. A chunk MAC (the paper's coarse-grain MAC) hashes the block
 * MACs of all blocks in a chunk.
 */

#ifndef SHMGPU_CRYPTO_MAC_HH
#define SHMGPU_CRYPTO_MAC_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/dispatch.hh"
#include "crypto/siphash.hh"

namespace shmgpu::crypto
{

/** An 8-byte message authentication code. */
using Mac = std::uint64_t;

/** One block-MAC request in a batch (see MacEngine::blockMacBatch). */
struct BlockMacInput
{
    const DataBlock *ciphertext = nullptr;
    LocalAddr addr = 0;
    std::uint64_t major = 0;
    std::uint64_t minor = 0;
    std::uint32_t partition = 0;
};

/** Computes block- and chunk-level MACs under a fixed key. */
class MacEngine
{
  public:
    explicit MacEngine(const SipKey &key);

    /**
     * Stateful per-block MAC: MAC(ciphertext || local addr || major ||
     * minor || partition).
     */
    Mac blockMac(const DataBlock &ciphertext, LocalAddr addr,
                 std::uint64_t major, std::uint64_t minor,
                 std::uint32_t partition) const;

    /**
     * Block MACs for a burst: @p out[i] = blockMac(jobs[i]...). The
     * MEE paths hand over the sectors of one epoch or transaction
     * burst at once; activeMacKernel()'s kernel computes them.
     */
    void
    blockMacBatch(std::span<const BlockMacInput> jobs, Mac *out) const
    {
        blockMacBatch(jobs, out, kernel);
    }

    /**
     * blockMacBatch() through the named @p with kernel, so the
     * differential tests run both on one host. MacKernel::Avx2 panics
     * on a CPU without AVX2.
     */
    void blockMacBatch(std::span<const BlockMacInput> jobs, Mac *out,
                       MacKernel with) const;

    /**
     * Per-chunk MAC: hash of the ordered block MACs of every block in
     * the chunk, bound to the chunk's local address.
     */
    Mac chunkMac(std::span<const Mac> block_macs, LocalAddr chunk_addr,
                 std::uint32_t partition) const;

  private:
    SipKey key;
    MacKernel kernel;
};

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_MAC_HH
