#include "mem/backing_store.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace shmgpu::mem
{

namespace
{
constexpr Addr kBlock = 128;

Addr
align(Addr addr)
{
    return addr & ~(kBlock - 1);
}
} // namespace

BackingStore::BackingStore(std::uint64_t bytes)
    : image(alignUp(bytes, kBlock))
{
}

void
BackingStore::checkRange(Addr addr, std::uint64_t len) const
{
    shm_assert(addr < size() && len <= size() - addr,
               "backing-store access of {} bytes at address {} beyond "
               "its {} bytes", len, addr, size());
}

crypto::DataBlock
BackingStore::readBlock(Addr addr) const
{
    checkRange(align(addr), kBlock);
    crypto::DataBlock data;
    std::memcpy(data.data(), image.data() + align(addr), kBlock);
    return data;
}

void
BackingStore::writeBlock(Addr addr, const crypto::DataBlock &data)
{
    checkRange(align(addr), kBlock);
    std::memcpy(image.data() + align(addr), data.data(), kBlock);
}

void
BackingStore::read(Addr addr, void *out, std::size_t len) const
{
    checkRange(addr, len);
    std::memcpy(out, image.data() + addr, len);
}

void
BackingStore::write(Addr addr, const void *in, std::size_t len)
{
    checkRange(addr, len);
    std::memcpy(image.data() + addr, in, len);
}

void
BackingStore::corruptByte(Addr addr, std::uint8_t xor_mask)
{
    checkRange(addr, 1);
    image[addr] ^= xor_mask;
}

} // namespace shmgpu::mem
