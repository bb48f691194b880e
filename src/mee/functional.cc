#include "mee/functional.hh"

#include <algorithm>
#include <cstring>

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
      store(metaLayout.params().dataBytes)
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
    // read-only shared-counter path, the whole copy is one crypto
    // burst — encrypt all pads through the batched AES backend and
    // recompute MACs through the interleaved SipHash batch, then
    // refresh each covered chunk MAC once instead of once per block.
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

    std::size_t n = len / kBlock;
    std::vector<crypto::DataBlock> blocks(n);
    std::vector<crypto::Seed> seeds(n);
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr b = base + i * kBlock;
        roDetector.markInputRegion(b, kBlock);
        roRegionBases.insert(regionBase(b));
        std::memcpy(blocks[i].data(), src + i * kBlock, kBlock);
        seeds[i] = seedFor(b, true);
    }
    ctrEngine.transformBatch(blocks.data(), seeds.data(), n);

    std::vector<crypto::BlockMacInput> jobs(n);
    std::vector<crypto::Mac> tags(n);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i] = {&blocks[i], seeds[i].address, seeds[i].major,
                   seeds[i].minor, seeds[i].partition};
    macEngine.blockMacBatch(jobs, tags.data());

    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr b = base + i * kBlock;
        store.writeBlock(b, blocks[i]);
        macs.setBlockMac(b, tags[i]);
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

    // Decrypt the whole region under its current counters, all pads
    // generated in one batched AES sweep.
    std::vector<crypto::DataBlock> blocks(n);
    std::vector<crypto::Seed> seeds(n);
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr b = base + i * kBlock;
        blocks[i] = store.readBlock(b);
        seeds[i] = seedFor(b, false);
    }
    ctrEngine.transformBatch(blocks.data(), seeds.data(), n);

    counterStore.bumpMajor(base);
    bmt.updatePath(metaLayout.counterBlockIndex(base));

    // Re-encrypt everything under (major+1, 0) and refresh MACs, again
    // as one encrypt burst plus one interleaved-SipHash MAC burst.
    std::vector<crypto::BlockMacInput> jobs(n);
    std::vector<crypto::Mac> tags(n);
    for (std::size_t i = 0; i < n; ++i)
        seeds[i] = seedFor(base + i * kBlock, false);
    ctrEngine.transformBatch(blocks.data(), seeds.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i] = {&blocks[i], seeds[i].address, seeds[i].major,
                   seeds[i].minor, seeds[i].partition};
    macEngine.blockMacBatch(jobs, tags.data());
    for (std::size_t i = 0; i < n; ++i) {
        store.writeBlock(base + i * kBlock, blocks[i]);
        macs.setBlockMac(base + i * kBlock, tags[i]);
    }
    std::uint64_t chunk_bytes = metaLayout.params().chunkBytes;
    for (LocalAddr c = base; c < end; c += chunk_bytes)
        refreshChunkMac(c);
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
    // the burst can be verified and decrypted in two batched sweeps:
    // one interleaved-SipHash pass recomputing every expected MAC, and
    // one batched-AES pass generating pads for the lanes that passed.
    std::vector<crypto::DataBlock> ciphers(n);
    std::vector<crypto::Seed> seeds(n);
    std::vector<crypto::BlockMacInput> jobs(n);
    std::vector<crypto::Mac> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr block = addrs[i] / kBlock * kBlock;
        bool ro = roDetector.isReadOnly(block);
        ciphers[i] = store.readBlock(block);
        seeds[i] = seedFor(block, ro);
        jobs[i] = {&ciphers[i], seeds[i].address, seeds[i].major,
                   seeds[i].minor, seeds[i].partition};
    }
    macEngine.blockMacBatch(jobs, expected.data());

    std::vector<std::size_t> pass;
    pass.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr block = addrs[i] / kBlock * kBlock;
        out[i] = FunctionalReadResult{};
        if (expected[i] != storedBlockMacOrInit(block)) {
            out[i].status = VerifyStatus::MacMismatch;
            continue;
        }
        if (!roDetector.isReadOnly(block) &&
            !bmt.verifyPath(metaLayout.counterBlockIndex(block)).ok) {
            out[i].status = VerifyStatus::BmtMismatch;
            continue;
        }
        pass.push_back(i);
    }

    std::vector<crypto::DataBlock> plains(pass.size());
    std::vector<crypto::Seed> pass_seeds(pass.size());
    for (std::size_t p = 0; p < pass.size(); ++p) {
        plains[p] = ciphers[pass[p]];
        pass_seeds[p] = seeds[pass[p]];
    }
    ctrEngine.transformBatch(plains.data(), pass_seeds.data(),
                             pass.size());
    for (std::size_t p = 0; p < pass.size(); ++p)
        out[pass[p]].data = plains[p];
}

void
SecureMemoryContext::reencryptSharedRegion(LocalAddr region_base,
                                           std::uint64_t old_shared)
{
    LocalAddr end = std::min<LocalAddr>(
        region_base + roDetector.params().regionBytes,
        metaLayout.params().dataBytes);
    std::size_t n = (end - region_base) / kBlock;

    // Old-pad decrypt and new-pad encrypt are each one batched AES
    // sweep over the region; the MAC refresh is one SipHash batch.
    std::vector<crypto::DataBlock> blocks(n);
    std::vector<crypto::Seed> seeds(n);
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr b = region_base + i * kBlock;
        blocks[i] = store.readBlock(b);
        seeds[i] = crypto::Seed{b, old_shared, 0, tenantTag};
    }
    ctrEngine.transformBatch(blocks.data(), seeds.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        seeds[i].major = shared.value();
    ctrEngine.transformBatch(blocks.data(), seeds.data(), n);

    std::vector<crypto::BlockMacInput> jobs(n);
    std::vector<crypto::Mac> tags(n);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i] = {&blocks[i], seeds[i].address, seeds[i].major, 0,
                   seeds[i].partition};
    macEngine.blockMacBatch(jobs, tags.data());
    for (std::size_t i = 0; i < n; ++i) {
        store.writeBlock(region_base + i * kBlock, blocks[i]);
        macs.setBlockMac(region_base + i * kBlock, tags[i]);
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
        // counters after kernel writes) to the new shared value.
        std::vector<LocalAddr> todo;
        for (LocalAddr b = base; b < end; b += kBlock) {
            if (roRegionBases.contains(regionBase(b)))
                continue; // already re-encrypted above
            todo.push_back(b);
        }
        std::size_t n = todo.size();
        std::vector<crypto::DataBlock> blocks(n);
        std::vector<crypto::Seed> seeds(n);
        for (std::size_t i = 0; i < n; ++i) {
            blocks[i] = store.readBlock(todo[i]);
            seeds[i] = seedFor(todo[i], false);
        }
        ctrEngine.transformBatch(blocks.data(), seeds.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            seeds[i] = crypto::Seed{todo[i], shared.value(), 0, tenantTag};
        ctrEngine.transformBatch(blocks.data(), seeds.data(), n);

        std::vector<crypto::BlockMacInput> jobs(n);
        std::vector<crypto::Mac> tags(n);
        for (std::size_t i = 0; i < n; ++i)
            jobs[i] = {&blocks[i], seeds[i].address, seeds[i].major, 0,
                       seeds[i].partition};
        macEngine.blockMacBatch(jobs, tags.data());
        for (std::size_t i = 0; i < n; ++i) {
            store.writeBlock(todo[i], blocks[i]);
            macs.setBlockMac(todo[i], tags[i]);
        }
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

    // Recompute every block MAC of the chunk in one interleaved
    // SipHash batch — the coarse-grain verification burst.
    std::size_t n = (end - base) / kBlock;
    std::vector<crypto::DataBlock> ciphers(n);
    std::vector<crypto::BlockMacInput> jobs(n);
    std::vector<crypto::Mac> block_macs(n);
    bool any_not_ro = false;
    for (std::size_t i = 0; i < n; ++i) {
        LocalAddr b = base + i * kBlock;
        bool ro = roDetector.isReadOnly(b);
        any_not_ro |= !ro;
        ciphers[i] = store.readBlock(b);
        crypto::Seed s = seedFor(b, ro);
        jobs[i] = {&ciphers[i], s.address, s.major, s.minor,
                   s.partition};
    }
    macEngine.blockMacBatch(jobs, block_macs.data());
    auto stored = macs.chunkMac(base);
    if (!stored) {
        refreshChunkMac(base);
        stored = macs.chunkMac(base);
    }
    if (macEngine.chunkMac(block_macs, base, tenantTag) != *stored)
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
