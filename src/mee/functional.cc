#include "mee/functional.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "common/logging.hh"

namespace shmgpu::mee
{

namespace
{
constexpr std::uint32_t kBlock = 128;
} // namespace

SecureMemoryContext::SecureMemoryContext(
    const meta::LayoutParams &layout_params, std::uint64_t context_seed,
    const detect::ReadOnlyDetectorParams &ro_params,
    std::uint32_t tenant_id)
    : metaLayout(layout_params), tenantTag(tenant_id << 16),
      keys(crypto::generateTenantKeys(context_seed, tenant_id)),
      ctrEngine(keys.encryptionKey), macEngine(keys.macKey),
      counterStore(metaLayout), macs(metaLayout),
      bmt(metaLayout, counterStore, keys.treeKey), roDetector(ro_params),
      store(metaLayout.params().dataBytes),
      chunkScratch(metaLayout.params().chunkBytes / kBlock)
{
}

crypto::Seed
SecureMemoryContext::seedFor(LocalAddr addr, bool read_only) const
{
    LocalAddr block = addr / kBlock * kBlock;
    if (read_only)
        return {block, shared.value(), 0, tenantTag};
    meta::CounterValue cv = counterStore.read(block);
    return {block, cv.major, cv.minor, tenantTag};
}

crypto::Mac
SecureMemoryContext::macFor(const crypto::DataBlock &ciphertext,
                            LocalAddr addr, bool read_only) const
{
    crypto::Seed s = seedFor(addr, read_only);
    return macEngine.blockMac(ciphertext, s.address, s.major, s.minor,
                              s.partition);
}

crypto::Mac
SecureMemoryContext::storedBlockMacOrInit(LocalAddr addr)
{
    LocalAddr block = addr / kBlock * kBlock;
    if (auto mac = macs.blockMac(block))
        return *mac;
    // Context initialization computed MACs for the whole protected
    // space; blocks we never materialized get theirs lazily, over
    // their current (zero) ciphertext and counters.
    crypto::Mac mac = macFor(store.readBlock(block), block,
                             roDetector.isReadOnly(block));
    macs.setBlockMac(block, mac);
    return mac;
}

void
SecureMemoryContext::refreshChunkMac(LocalAddr addr)
{
    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    LocalAddr base = addr / chunk_bytes * chunk_bytes;
    LocalAddr end = std::min<LocalAddr>(base + chunk_bytes,
                                        metaLayout.params().dataBytes);
    for (LocalAddr b = base; b < end; b += kBlock)
        storedBlockMacOrInit(b);
    macs.setChunkMac(base, macEngine.chunkMac(macs.chunkBlockMacs(base),
                                              base, tenantTag));
}

void
SecureMemoryContext::hostWrite(LocalAddr addr,
                               const crypto::DataBlock &plaintext,
                               bool mark_read_only)
{
    LocalAddr block = addr / kBlock * kBlock;

    // Marking a region read-only is only sound while its sibling
    // blocks still decrypt under (shared, 0): a region that has
    // devolved to per-block counters must first go through
    // InputReadOnlyReset. The command-processor equivalent: plain
    // memcpy marking happens at context init; mid-context reuse uses
    // the API.
    bool region_fresh =
        roDetector.isReadOnly(block) ||
        roDetector.causeFor(block) == detect::NotReadOnlyCause::NeverSet;
    if (!mark_read_only || !region_fresh) {
        writeWithPerBlockCounter(block, plaintext);
        return;
    }

    roDetector.markInputRegion(block, kBlock);
    roRegionBases.insert(regionBase(block));
    crypto::DataBlock cipher =
        ctrEngine.transformed(plaintext, seedFor(block, true));
    store.writeBlock(block, cipher);
    macs.setBlockMac(block, macFor(cipher, block, true));
    refreshChunkMac(block);
}

void
SecureMemoryContext::hostWriteRange(LocalAddr base, const void *data,
                                    std::size_t len, bool mark_read_only)
{
    shm_assert(base % kBlock == 0 && len % kBlock == 0,
               "host copies must be 128B-block aligned");
    const auto *src = static_cast<const std::uint8_t *>(data);

    // Batched fast path: when every block in the range would take the
    // read-only shared-counter path, the copy runs in crypto bursts —
    // pads through the batched AES backend and MACs through the
    // block-MAC batch kernel — then refreshes each covered chunk MAC
    // once instead of once per block.
    // (Marking regions read-only never un-freshens a later block, so
    // the pre-check is equivalent to the sequential decision.)
    bool all_fresh = mark_read_only;
    for (std::size_t off = 0; all_fresh && off < len; off += kBlock) {
        LocalAddr b = base + off;
        all_fresh = roDetector.isReadOnly(b) ||
                    roDetector.causeFor(b) ==
                        detect::NotReadOnlyCause::NeverSet;
    }
    if (!all_fresh) {
        for (std::size_t off = 0; off < len; off += kBlock) {
            crypto::DataBlock plain;
            std::memcpy(plain.data(), src + off, kBlock);
            hostWrite(base + off, plain, mark_read_only);
        }
        return;
    }

    roDetector.markInputRegion(base, len);
    for (LocalAddr b = base; b < base + len;
         b = regionBase(b) + roDetector.params().regionBytes)
        roRegionBases.insert(regionBase(b));

    std::array<crypto::DataBlock, kBurstBlocks> blocks;
    std::array<crypto::Seed, kBurstBlocks> seeds;
    std::array<crypto::BlockMacInput, kBurstBlocks> jobs;
    std::array<crypto::Mac, kBurstBlocks> tags;
    const std::size_t n = len / kBlock;
    for (std::size_t first = 0; first < n; first += kBurstBlocks) {
        const std::size_t m = std::min(kBurstBlocks, n - first);
        for (std::size_t k = 0; k < m; ++k) {
            std::memcpy(blocks[k].data(), src + (first + k) * kBlock,
                        kBlock);
            seeds[k] = seedFor(base + (first + k) * kBlock, true);
        }
        ctrEngine.transformBatch(blocks.data(), seeds.data(), m);
        for (std::size_t k = 0; k < m; ++k)
            jobs[k] = {&blocks[k], seeds[k].address, seeds[k].major,
                       seeds[k].minor, seeds[k].partition};
        macEngine.blockMacBatch(std::span(jobs).first(m), tags.data());
        for (std::size_t k = 0; k < m; ++k) {
            store.writeBlock(seeds[k].address, blocks[k]);
            macs.setBlockMac(seeds[k].address, tags[k]);
        }
    }
    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    for (LocalAddr c = base / chunk_bytes * chunk_bytes; c < base + len;
         c += chunk_bytes)
        refreshChunkMac(c);
}

void
SecureMemoryContext::writeWithPerBlockCounter(
    LocalAddr addr, const crypto::DataBlock &plaintext)
{
    LocalAddr block = addr / kBlock * kBlock;

    if (roDetector.recordWrite(block)) {
        // Read-only -> not-read-only transition (Fig. 8): propagate
        // the shared counter into every counter block of the predictor
        // region, so untouched blocks keep decrypting correctly. The
        // tagless detector entry is shared by every aliasing region
        // (R + k * entries * regionBytes); the ones still encrypted
        // under the shared counter now read through per-block
        // counters too, so they get the same treatment.
        const std::uint64_t region_bytes = roDetector.params().regionBytes;
        const std::uint64_t alias_stride =
            static_cast<std::uint64_t>(roDetector.params().entries) *
            region_bytes;
        const LocalAddr written = regionBase(block);
        for (LocalAddr rb = written % alias_stride;
             rb < metaLayout.params().dataBytes; rb += alias_stride)
            if (roRegionBases.erase(rb) > 0 || rb == written)
                propagateSharedCounter(rb);
    }

    if (counterStore.read(block).minor + 1 >= counterStore.minorLimit())
        reencryptRegion(block);

    meta::IncrementResult inc = counterStore.increment(block);
    shm_assert(!inc.minorOverflow, "overflow after re-encryption");
    bmt.updatePath(metaLayout.counterBlockIndex(block));

    crypto::Seed s{block, inc.value.major, inc.value.minor, tenantTag};
    crypto::DataBlock cipher = ctrEngine.transformed(plaintext, s);
    store.writeBlock(block, cipher);
    macs.setBlockMac(block,
                     macEngine.blockMac(cipher, s.address, s.major,
                                        s.minor, s.partition));
    refreshChunkMac(block);
}

void
SecureMemoryContext::propagateSharedCounter(LocalAddr region_base)
{
    const std::uint64_t cover =
        static_cast<std::uint64_t>(
            metaLayout.params().blocksPerCounterBlock) *
        kBlock;
    const LocalAddr end =
        std::min<LocalAddr>(region_base + roDetector.params().regionBytes,
                            metaLayout.params().dataBytes);
    for (LocalAddr a = region_base; a < end; a += cover) {
        counterStore.setRegionMajor(a, shared.value());
        bmt.updatePath(metaLayout.counterBlockIndex(a));
    }
}

void
SecureMemoryContext::deviceWrite(LocalAddr addr,
                                 const crypto::DataBlock &plaintext)
{
    writeWithPerBlockCounter(addr, plaintext);
}

void
SecureMemoryContext::reencryptRegion(LocalAddr addr)
{
    std::uint64_t cover =
        static_cast<std::uint64_t>(
            metaLayout.params().blocksPerCounterBlock) *
        kBlock;
    LocalAddr base = addr / cover * cover;
    LocalAddr end = std::min<LocalAddr>(base + cover,
                                        metaLayout.params().dataBytes);
    std::size_t n = (end - base) / kBlock;

    // Every block moves from its current counters to (major+1, 0),
    // a burst at a time: one decrypt and one encrypt AES sweep and one
    // block-MAC batch per burst. The counters are bumped afterwards,
    // so each burst still reads the old ones.
    const std::uint64_t next_major = counterStore.read(base).major + 1;
    std::array<crypto::Seed, kBurstBlocks> from, to;
    for (std::size_t first = 0; first < n; first += kBurstBlocks) {
        const std::size_t m = std::min(kBurstBlocks, n - first);
        for (std::size_t k = 0; k < m; ++k) {
            const LocalAddr b = base + (first + k) * kBlock;
            from[k] = seedFor(b, false);
            to[k] = {b, next_major, 0, tenantTag};
        }
        rekeyBlocks(from.data(), to.data(), m);
    }
    counterStore.bumpMajor(base);
    bmt.updatePath(metaLayout.counterBlockIndex(base));

    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    for (LocalAddr c = base; c < end; c += chunk_bytes)
        refreshChunkMac(c);
}

void
SecureMemoryContext::rekeyBlocks(const crypto::Seed *from,
                                 const crypto::Seed *to, std::size_t n)
{
    shm_assert(n <= kBurstBlocks, "rekey burst of {} blocks", n);
    std::array<crypto::DataBlock, kBurstBlocks> blocks;
    std::array<crypto::BlockMacInput, kBurstBlocks> jobs;
    std::array<crypto::Mac, kBurstBlocks> tags;
    for (std::size_t k = 0; k < n; ++k)
        blocks[k] = store.readBlock(to[k].address);
    ctrEngine.transformBatch(blocks.data(), from, n);
    ctrEngine.transformBatch(blocks.data(), to, n);
    for (std::size_t k = 0; k < n; ++k)
        jobs[k] = {&blocks[k], to[k].address, to[k].major, to[k].minor,
                   to[k].partition};
    macEngine.blockMacBatch(std::span(jobs).first(n), tags.data());
    for (std::size_t k = 0; k < n; ++k) {
        store.writeBlock(to[k].address, blocks[k]);
        macs.setBlockMac(to[k].address, tags[k]);
    }
}

FunctionalReadResult
SecureMemoryContext::deviceRead(LocalAddr addr)
{
    LocalAddr block = addr / kBlock * kBlock;
    bool ro = roDetector.isReadOnly(block);

    crypto::DataBlock cipher = store.readBlock(block);
    crypto::Mac expected = macFor(cipher, block, ro);
    crypto::Mac stored = storedBlockMacOrInit(block);

    FunctionalReadResult res;
    if (expected != stored) {
        res.status = VerifyStatus::MacMismatch;
        return res;
    }
    if (!ro) {
        // Counters came from off-chip state: check freshness.
        auto verdict =
            bmt.verifyPath(metaLayout.counterBlockIndex(block));
        if (!verdict.ok) {
            res.status = VerifyStatus::BmtMismatch;
            return res;
        }
    }
    res.data = ctrEngine.transformed(cipher, seedFor(block, ro));
    res.status = VerifyStatus::Ok;
    return res;
}

void
SecureMemoryContext::deviceReadBatch(const LocalAddr *addrs,
                                     FunctionalReadResult *out,
                                     std::size_t n)
{
    // Reads have no off-chip side effects (beyond lazy MAC init), so
    // each burst of up to kBurstBlocks is verified and decrypted in
    // two batched sweeps: one block-MAC batch recomputing every
    // expected MAC, and one batched-AES pass generating pads for the
    // lanes that passed.
    std::array<crypto::DataBlock, kBurstBlocks> ciphers;
    std::array<crypto::Seed, kBurstBlocks> seeds;
    std::array<crypto::BlockMacInput, kBurstBlocks> jobs;
    std::array<crypto::Mac, kBurstBlocks> expected;
    std::array<std::size_t, kBurstBlocks> pass;
    std::array<bool, kBurstBlocks> read_only;
    for (std::size_t first = 0; first < n; first += kBurstBlocks) {
        const std::size_t m = std::min(kBurstBlocks, n - first);
        for (std::size_t k = 0; k < m; ++k) {
            LocalAddr block = addrs[first + k] / kBlock * kBlock;
            read_only[k] = roDetector.isReadOnly(block);
            ciphers[k] = store.readBlock(block);
            seeds[k] = seedFor(block, read_only[k]);
            jobs[k] = {&ciphers[k], seeds[k].address, seeds[k].major,
                       seeds[k].minor, seeds[k].partition};
        }
        macEngine.blockMacBatch(std::span(jobs).first(m), expected.data());

        // Compact the lanes that verified to the front, then decrypt
        // them in place. Nothing here changes the counters or the
        // tree, so lanes in one counter block share a path verdict.
        std::size_t passed = 0;
        std::uint64_t verified_idx = ~std::uint64_t{0};
        bool verified_ok = false;
        for (std::size_t k = 0; k < m; ++k) {
            LocalAddr block = seeds[k].address;
            FunctionalReadResult &res = out[first + k];
            res = FunctionalReadResult{};
            if (expected[k] != storedBlockMacOrInit(block)) {
                res.status = VerifyStatus::MacMismatch;
                continue;
            }
            if (!read_only[k]) {
                const std::uint64_t idx = metaLayout.counterBlockIndex(block);
                if (idx != verified_idx) {
                    verified_idx = idx;
                    verified_ok = bmt.verifyPath(idx).ok;
                }
                if (!verified_ok) {
                    res.status = VerifyStatus::BmtMismatch;
                    continue;
                }
            }
            if (passed != k) {
                ciphers[passed] = ciphers[k];
                seeds[passed] = seeds[k];
            }
            pass[passed++] = first + k;
        }
        ctrEngine.transformBatch(ciphers.data(), seeds.data(), passed);
        for (std::size_t p = 0; p < passed; ++p)
            out[pass[p]].data = ciphers[p];
    }
}

void
SecureMemoryContext::reencryptSharedRegion(LocalAddr region_base,
                                           std::uint64_t old_shared)
{
    LocalAddr end = std::min<LocalAddr>(
        region_base + roDetector.params().regionBytes,
        metaLayout.params().dataBytes);
    std::size_t n = (end - region_base) / kBlock;

    // From (old shared, 0) to (shared, 0), a burst at a time.
    std::array<crypto::Seed, kBurstBlocks> from, to;
    for (std::size_t first = 0; first < n; first += kBurstBlocks) {
        const std::size_t m = std::min(kBurstBlocks, n - first);
        for (std::size_t k = 0; k < m; ++k) {
            const LocalAddr b = region_base + (first + k) * kBlock;
            from[k] = {b, old_shared, 0, tenantTag};
            to[k] = {b, shared.value(), 0, tenantTag};
        }
        rekeyBlocks(from.data(), to.data(), m);
    }
    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    for (LocalAddr c = region_base; c < end; c += chunk_bytes)
        refreshChunkMac(c);
}

void
SecureMemoryContext::inputReadOnlyReset(LocalAddr base,
                                        std::uint64_t bytes,
                                        bool reencrypt)
{
    // Fig. 9: scan the range's major counters and raise the shared
    // counter above the maximum, so (shared', 0) can never collide
    // with a previously used per-block pair.
    std::uint64_t old_shared = shared.value();
    shared.raiseAbove(
        std::max(counterStore.maxMajor(base, bytes), old_shared));

    // The shared counter is global: every region still encrypted
    // under the old value must follow it or become unreadable — the
    // consequence Section IV-B spells out. Option (b) re-encryption,
    // applied to all affected regions.
    for (LocalAddr rb : roRegionBases)
        reencryptSharedRegion(rb, old_shared);

    LocalAddr end = std::min<LocalAddr>(base + bytes,
                                        metaLayout.params().dataBytes);
    if (reencrypt) {
        // Also bring the target range (possibly under per-block
        // counters after kernel writes) to the new shared value,
        // skipping the regions already re-encrypted above.
        std::array<crypto::Seed, kBurstBlocks> from, to;
        std::size_t m = 0;
        for (LocalAddr b = base; b < end; b += kBlock) {
            if (roRegionBases.contains(regionBase(b)))
                continue;
            from[m] = seedFor(b, false);
            to[m++] = {b, shared.value(), 0, tenantTag};
            if (m == kBurstBlocks) {
                rekeyBlocks(from.data(), to.data(), m);
                m = 0;
            }
        }
        rekeyBlocks(from.data(), to.data(), m);
        std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
        for (LocalAddr c = base / chunk_bytes * chunk_bytes; c < end;
             c += chunk_bytes)
            refreshChunkMac(c);
    }
    // (Without re-encryption the host overwrites the range next; its
    // old content is unreadable, exactly as the paper describes.)
    roDetector.resetReadOnly(base, end - base);
    for (LocalAddr rb = regionBase(base); rb < end;
         rb += roDetector.params().regionBytes)
        roRegionBases.insert(rb);
}

VerifyStatus
SecureMemoryContext::verifyChunk(LocalAddr chunk_base)
{
    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    LocalAddr base = chunk_base / chunk_bytes * chunk_bytes;
    LocalAddr end = std::min<LocalAddr>(base + chunk_bytes,
                                        metaLayout.params().dataBytes);

    // Recompute every block MAC of the chunk, a burst at a time — the
    // coarse-grain verification sweep.
    const std::size_t n = (end - base) / kBlock;
    std::array<crypto::DataBlock, kBurstBlocks> ciphers;
    std::array<crypto::BlockMacInput, kBurstBlocks> jobs;
    bool any_not_ro = false;
    for (std::size_t first = 0; first < n; first += kBurstBlocks) {
        const std::size_t m = std::min(kBurstBlocks, n - first);
        for (std::size_t k = 0; k < m; ++k) {
            LocalAddr b = base + (first + k) * kBlock;
            bool ro = roDetector.isReadOnly(b);
            any_not_ro |= !ro;
            ciphers[k] = store.readBlock(b);
            crypto::Seed s = seedFor(b, ro);
            jobs[k] = {&ciphers[k], s.address, s.major, s.minor,
                       s.partition};
        }
        macEngine.blockMacBatch(std::span(jobs).first(m),
                                chunkScratch.data() + first);
    }
    auto stored = macs.chunkMac(base);
    if (!stored) {
        refreshChunkMac(base);
        stored = macs.chunkMac(base);
    }
    if (macEngine.chunkMac(std::span(chunkScratch).first(n), base,
                           tenantTag) != *stored)
        return VerifyStatus::MacMismatch;

    if (any_not_ro) {
        auto verdict = bmt.verifyPath(metaLayout.counterBlockIndex(base));
        if (!verdict.ok)
            return VerifyStatus::BmtMismatch;
    }
    return VerifyStatus::Ok;
}

SecureMemoryContext::BlockSnapshot
SecureMemoryContext::snapshotBlock(LocalAddr addr) const
{
    LocalAddr block = addr / kBlock * kBlock;
    BlockSnapshot snap;
    snap.addr = block;
    snap.ciphertext = store.readBlock(block);
    if (auto mac = macs.blockMac(block))
        snap.mac = *mac;
    snap.counter = counterStore.read(block);
    return snap;
}

void
SecureMemoryContext::replayBlock(const BlockSnapshot &snapshot)
{
    store.writeBlock(snapshot.addr, snapshot.ciphertext);
    macs.setBlockMac(snapshot.addr, snapshot.mac);
    counterStore.restore(snapshot.addr, snapshot.counter);
    // Note: the attacker cannot touch the on-chip BMT root, which is
    // exactly what makes this replay detectable.
}

} // namespace shmgpu::mee
