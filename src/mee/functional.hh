/**
 * @file
 * Functional secure-memory context: the MEE datapath with real
 * cryptography.
 *
 * Where mee/engine.hh models *timing* (what traffic an access causes),
 * this class models *values*: data really is AES-CTR encrypted into a
 * backing store, block/chunk MACs really are SipHash tags bound to
 * address and counters, and the Bonsai Merkle Tree really hashes the
 * counter blocks. Tests use it to mount genuine physical attacks
 * (tampering, splicing, replay, cross-kernel replay) and check that
 * every one is detected, and that the SHM shared-counter/read-only
 * machinery never breaks decryption.
 */

#ifndef SHMGPU_MEE_FUNCTIONAL_HH
#define SHMGPU_MEE_FUNCTIONAL_HH

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "detect/readonly.hh"
#include "mem/backing_store.hh"
#include "meta/bmt.hh"
#include "meta/counters.hh"
#include "meta/layout.hh"
#include "meta/mac_store.hh"

namespace shmgpu::mee
{

/** Outcome of a verified read. */
enum class VerifyStatus : std::uint8_t
{
    Ok,
    MacMismatch,   //!< integrity failure (tampering/splicing)
    BmtMismatch    //!< freshness failure (replay)
};

/** A verified, decrypted read. */
struct FunctionalReadResult
{
    crypto::DataBlock data{};
    VerifyStatus status = VerifyStatus::Ok;
};

/** One GPU context's worth of functionally-secure memory. */
class SecureMemoryContext
{
  public:
    /**
     * @p tenant_id selects the key domain: keys come from
     * crypto::generateTenantKeys(context_seed, tenant_id), and the
     * tenant tag is mixed into every encryption seed and MAC as an
     * extra tweak. Two contexts over the same physical space with
     * different tenant ids can never authenticate each other's lines
     * (tests/test_tenant_isolation.cc). Tenant 0 is bit-compatible
     * with the legacy single-context construction.
     */
    SecureMemoryContext(const meta::LayoutParams &layout_params,
                        std::uint64_t context_seed,
                        const detect::ReadOnlyDetectorParams &ro_params =
                            detect::ReadOnlyDetectorParams{},
                        std::uint32_t tenant_id = 0);

    /**
     * Host-to-device copy of one 128 B block. With @p mark_read_only
     * (the CUDA-memcpy default) the block is encrypted under the
     * shared counter and its region marked read-only; otherwise it
     * takes the per-block-counter write path.
     */
    void hostWrite(LocalAddr addr, const crypto::DataBlock &plaintext,
                   bool mark_read_only = true);

    /** Host copy of an arbitrary block-aligned range. */
    void hostWriteRange(LocalAddr base, const void *data,
                        std::size_t len, bool mark_read_only = true);

    /** Kernel store to one 128 B block (drives RO transitions). */
    void deviceWrite(LocalAddr addr, const crypto::DataBlock &plaintext);

    /** Kernel load of one 128 B block, fully verified. */
    FunctionalReadResult deviceRead(LocalAddr addr);

    /**
     * Verified load of @p n blocks — the value-level analogue of one
     * epoch's transaction burst. MAC recomputation runs through the
     * block-MAC batch kernel and OTP generation through the batched
     * AES backend, kBurstBlocks at a time, and lanes in one counter
     * block share one BMT path verification; results are identical to
     * @p n sequential deviceRead() calls.
     */
    void deviceReadBatch(const LocalAddr *addrs,
                         FunctionalReadResult *out, std::size_t n);

    /**
     * The InputReadOnlyReset(address range) API (Fig. 9): scan the
     * range's major counters, raise the shared counter above the
     * maximum, and re-arm the range as read-only.
     *
     * With @p reencrypt (Section IV-B option (b)) the existing content
     * is re-encrypted under the new shared value and stays readable.
     * Without it (the common multi-kernel reuse pattern) the old
     * content becomes unreadable and the host must copy fresh input —
     * which also guarantees the new (shared, 0) pad is used exactly
     * once per address.
     */
    void inputReadOnlyReset(LocalAddr base, std::uint64_t bytes,
                            bool reencrypt = true);

    /** Verify a whole chunk against its chunk-level MAC. */
    VerifyStatus verifyChunk(LocalAddr chunk_base);

    /** @{ Attack surface for tests. */
    mem::BackingStore &memory() { return store; }
    meta::MacStore &macStore() { return macs; }
    meta::BonsaiTree &tree() { return bmt; }

    /**
     * Replay attack helper: capture the ciphertext + MAC + counter of
     * a block now, to be replayed later with replayBlock().
     */
    struct BlockSnapshot
    {
        LocalAddr addr = 0;
        crypto::DataBlock ciphertext{};
        crypto::Mac mac = 0;
        meta::CounterValue counter;
    };
    BlockSnapshot snapshotBlock(LocalAddr addr) const;
    /** Write the stale snapshot back into off-chip state. */
    void replayBlock(const BlockSnapshot &snapshot);
    /** @} */

    /** @{ Introspection. */
    const meta::MetadataLayout &layout() const { return metaLayout; }
    const meta::CounterStore &counters() const { return counterStore; }
    const meta::SharedCounter &sharedCounter() const { return shared; }
    const detect::ReadOnlyDetector &readOnlyDetector() const
    {
        return roDetector;
    }
    bool isReadOnly(LocalAddr addr) const
    {
        return roDetector.isReadOnly(addr);
    }
    /** @} */

  private:
    /** Blocks the batch paths run through the crypto kernels at once,
     *  in on-stack arrays. */
    static constexpr std::size_t kBurstBlocks = 32;

    LocalAddr
    regionBase(LocalAddr addr) const
    {
        return addr / roDetector.params().regionBytes *
               roDetector.params().regionBytes;
    }

    /** Re-encrypt one read-only region from an old shared value to
     *  the current one (keeps all RO data readable across raises). */
    void reencryptSharedRegion(LocalAddr region_base,
                               std::uint64_t old_shared);

    /**
     * Move @p n blocks (at most kBurstBlocks) from seeds @p from to
     * seeds @p to (block i at to[i].address): decrypt, re-encrypt,
     * and store each ciphertext with its new block MAC. The caller
     * refreshes the chunk MACs.
     */
    void rekeyBlocks(const crypto::Seed *from, const crypto::Seed *to,
                     std::size_t n);

    crypto::Seed seedFor(LocalAddr addr, bool read_only) const;
    crypto::Mac macFor(const crypto::DataBlock &ciphertext, LocalAddr addr,
                       bool read_only) const;
    /** Recompute the chunk MAC of @p addr's chunk from block MACs. */
    void refreshChunkMac(LocalAddr addr);
    crypto::Mac storedBlockMacOrInit(LocalAddr addr);
    void writeWithPerBlockCounter(LocalAddr addr,
                                  const crypto::DataBlock &plaintext);
    /** Set every counter block of one read-only predictor region to
     *  the shared counter's value (its read-only -> written step). */
    void propagateSharedCounter(LocalAddr region_base);
    /** Split-counter minor overflow: re-encrypt the 8 KB region. */
    void reencryptRegion(LocalAddr addr);

    meta::MetadataLayout metaLayout;
    /** Tenant id shifted past the partition-id range, used as the
     *  spatial tweak in every seed/MAC so even equal keys (a broken
     *  RNG) could not make tenant domains collide. */
    std::uint32_t tenantTag;
    crypto::KeyTuple keys;
    crypto::CtrModeEngine ctrEngine;
    crypto::MacEngine macEngine;
    meta::CounterStore counterStore;
    meta::SharedCounter shared;
    meta::MacStore macs;
    meta::BonsaiTree bmt;
    detect::ReadOnlyDetector roDetector;
    mem::BackingStore store;
    /**
     * Functional bookkeeping: the regions currently encrypted under
     * the shared counter. When the InputReadOnlyReset API raises the
     * shared value, these are re-encrypted so they stay readable —
     * the paper's option (b) applied to every affected region.
     */
    std::set<LocalAddr> roRegionBases;
    /** verifyChunk's recomputed block MACs, one chunk's worth. */
    std::vector<crypto::Mac> chunkScratch;
};

} // namespace shmgpu::mee

#endif // SHMGPU_MEE_FUNCTIONAL_HH
