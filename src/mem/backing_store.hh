/**
 * @file
 * Dense byte-addressable backing store for functional-mode simulation.
 *
 * The functional MEE path really encrypts data into this store and
 * really verifies MACs read back from it, which lets tests mount
 * genuine tampering/replay attacks against the engine.
 */

#ifndef SHMGPU_MEM_BACKING_STORE_HH
#define SHMGPU_MEM_BACKING_STORE_HH

#include <cstdint>

#include "common/demand_zero.hh"
#include "common/types.hh"
#include "crypto/ctr_mode.hh"

namespace shmgpu::mem
{

/**
 * A demand-zero image of [0, bytes), 128B-block granular. Unwritten
 * bytes read 0; an access at or beyond the size panics.
 */
class BackingStore
{
  public:
    /** An all-zero image of @p bytes (rounded up to whole blocks). */
    explicit BackingStore(std::uint64_t bytes);

    /** Read the 128 B block containing @p addr. */
    crypto::DataBlock readBlock(Addr addr) const;

    /** Overwrite the 128 B block containing @p addr. */
    void writeBlock(Addr addr, const crypto::DataBlock &data);

    /** Read/write arbitrary byte ranges (may span blocks). */
    void read(Addr addr, void *out, std::size_t len) const;
    void write(Addr addr, const void *in, std::size_t len);

    /** XOR a byte — the canonical physical-tampering primitive. */
    void corruptByte(Addr addr, std::uint8_t xor_mask = 0xFF);

    /** Size of the image in bytes. */
    std::uint64_t size() const { return image.size(); }

  private:
    /** Panic unless [addr, addr + len) lies inside the image. */
    void checkRange(Addr addr, std::uint64_t len) const;

    DemandZeroArray<std::uint8_t> image;
};

} // namespace shmgpu::mem

#endif // SHMGPU_MEM_BACKING_STORE_HH
