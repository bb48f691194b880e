#include "crypto/mac.hh"

namespace shmgpu::crypto
{

MacEngine::MacEngine(const SipKey &mac_key) : key(mac_key)
{
}

Mac
MacEngine::blockMac(const DataBlock &ciphertext, LocalAddr addr,
                    std::uint64_t major, std::uint64_t minor,
                    std::uint32_t partition) const
{
    SipHasher h(key);
    h.update(ciphertext.data(), ciphertext.size());
    h.updateU64(addr);
    h.updateU64(major);
    h.updateU64(minor);
    h.updateU64(partition);
    return h.digest();
}

void
MacEngine::blockMacBatch(std::span<const BlockMacInput> jobs,
                         Mac *out) const
{
    for (const BlockMacInput &job : jobs)
        *out++ = blockMac(*job.ciphertext, job.addr, job.major, job.minor,
                          job.partition);
}

Mac
MacEngine::chunkMac(std::span<const Mac> block_macs, LocalAddr chunk_addr,
                    std::uint32_t partition) const
{
    SipHasher h(key);
    for (Mac m : block_macs)
        h.updateU64(m);
    h.updateU64(chunk_addr);
    h.updateU64(partition);
    return h.digest();
}

} // namespace shmgpu::crypto
