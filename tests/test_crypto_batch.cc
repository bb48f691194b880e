/**
 * @file
 * Differential fuzz of the dispatched crypto paths against the scalar
 * references.
 *
 * The AES-NI kernel, the AVX2 block-MAC lanes and the burst entry
 * points (Aes128Batch, CtrModeEngine::transformBatch,
 * MacEngine::blockMacBatch, the MEE's range and batch paths) exist
 * purely for software speed: the contract is that each is
 * *byte-identical* to the portable scalar implementations (Aes128,
 * blockMac, the per-block MEE operations) for random keys, counters
 * and batch sizes — including ragged tails that don't fill a 4/8-lane
 * group. The tests run the paths this CPU dispatches to
 * (activeBackend(), activeMacKernel()); on a host without AES-NI or
 * AVX2 that is the scalar loop, so the suite stays meaningful on
 * non-x86 CI too. The block-MAC tests also call the scalar kernel by
 * name, so an AVX2 host runs both.
 * These tests carry the fuzz label and run under ASan/UBSan in the
 * sanitize tier.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "crypto/aes128.hh"
#include "crypto/aes128_batch.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/dispatch.hh"
#include "crypto/keygen.hh"
#include "crypto/mac.hh"
#include "mee/functional.hh"

using namespace shmgpu;
using namespace shmgpu::crypto;

namespace
{

Block16
randomBlock(Rng &rng)
{
    Block16 b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

DataBlock
randomData(Rng &rng)
{
    DataBlock d;
    for (auto &byte : d)
        byte = static_cast<std::uint8_t>(rng.next());
    return d;
}

Seed
randomSeed(Rng &rng)
{
    return Seed{rng.next() & 0xffffffffff80ull, rng.next(), rng.next(),
                static_cast<std::uint32_t>(rng.next() & 0xffff)};
}

/**
 * The CTR pad for @p seed from the scalar Aes128, chunk by chunk: the
 * Fig. 3 seed layout (address | major | minor | CID, partition id in
 * the CID word's top byte) encrypted one 16 B block at a time.
 */
DataBlock
scalarPad(const Aes128 &aes, const Seed &seed)
{
    DataBlock pad;
    for (std::size_t chunk = 0; chunk < chunksPerBlock; ++chunk) {
        std::uint64_t lo = seed.address;
        std::uint64_t hi = (seed.major << 8) ^ (seed.minor << 40) ^
                           (std::uint64_t{seed.partition} << 52) ^ chunk;
        Block16 in;
        for (int i = 0; i < 8; ++i) {
            in[i] = static_cast<std::uint8_t>(lo >> (8 * i));
            in[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
        }
        Block16 out = aes.encrypt(in);
        std::memcpy(pad.data() + chunk * aesChunkBytes, out.data(),
                    aesChunkBytes);
    }
    return pad;
}

// Batch sizes chosen to hit the 8-lane path, the 4-lane path, the
// scalar tail, and every ragged combination of them.
constexpr std::size_t batchSizes[] = {0, 1, 2, 3, 4, 5, 6, 7,
                                      8, 9, 11, 12, 15, 16, 31, 64};

meta::LayoutParams
meeLayout()
{
    meta::LayoutParams p;
    p.dataBytes = 1 << 20;
    return p;
}

} // namespace

TEST(CryptoDispatch, ProbeAndNames)
{
    // One cached probe: the same answer every call, named after one of
    // the two kernels.
    Backend probed = activeBackend();
    EXPECT_EQ(activeBackend(), probed);
    EXPECT_TRUE(probed == Backend::Scalar || probed == Backend::AesNi);
    EXPECT_STREQ(backendName(Backend::Scalar), "scalar");
    EXPECT_STREQ(backendName(Backend::AesNi), "aesni");

    MacKernel lanes = activeMacKernel();
    EXPECT_EQ(activeMacKernel(), lanes);
    EXPECT_TRUE(lanes == MacKernel::Scalar || lanes == MacKernel::Avx2);
    EXPECT_STREQ(macKernelName(MacKernel::Scalar), "scalar");
    EXPECT_STREQ(macKernelName(MacKernel::Avx2), "avx2x4");
}

TEST(CryptoBatchFuzz, AesBatchMatchesScalar)
{
    Rng rng(0xae5bea7c);
    for (unsigned rep = 0; rep < 20; ++rep) {
        Block16 key = randomBlock(rng);
        Aes128 ref(key);
        Aes128Batch batch(key);
        for (std::size_t n : batchSizes) {
            std::vector<Block16> in(n), out(n ? n : 1);
            for (auto &b : in)
                b = randomBlock(rng);
            batch.encryptBlocks(in.data(), out.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], ref.encrypt(in[i]))
                    << backendName(activeBackend()) << " n=" << n
                    << " i=" << i;
        }
    }
}

TEST(CryptoBatchFuzz, AesBatchInPlace)
{
    Rng rng(0x1e5bea7c);
    Block16 key = randomBlock(rng);
    Aes128 ref(key);
    Aes128Batch batch(key);
    for (std::size_t n : batchSizes) {
        std::vector<Block16> blocks(n), expect(n);
        for (std::size_t i = 0; i < n; ++i) {
            blocks[i] = randomBlock(rng);
            expect[i] = ref.encrypt(blocks[i]);
        }
        batch.encryptBlocks(blocks.data(), blocks.data(), n);
        EXPECT_EQ(blocks, expect) << "n=" << n;
    }
}

TEST(CryptoBatchFuzz, CtrKeystreamMatchesScalar)
{
    Rng rng(0xc7bbeef);
    for (unsigned rep = 0; rep < 8; ++rep) {
        Block16 key = randomBlock(rng);
        Aes128 ref(key);
        CtrModeEngine eng(key);
        // Single-seed pad (the 8-chunk batch inside generatePad).
        Seed s = randomSeed(rng);
        EXPECT_EQ(eng.generatePad(s), scalarPad(ref, s));

        for (std::size_t n : batchSizes) {
            std::vector<Seed> seeds(n);
            std::vector<DataBlock> data(n), expect(n);
            for (std::size_t i = 0; i < n; ++i) {
                seeds[i] = randomSeed(rng);
                data[i] = randomData(rng);
                DataBlock pad = scalarPad(ref, seeds[i]);
                for (std::size_t b = 0; b < blockBytes; ++b)
                    expect[i][b] = data[i][b] ^ pad[b];
            }
            eng.transformBatch(data.data(), seeds.data(), n);
            EXPECT_EQ(data, expect) << "n=" << n;
        }
    }
}

TEST(CryptoBatchFuzz, CtrTransformIsInvolution)
{
    Rng rng(0x11223344);
    CtrModeEngine eng(randomBlock(rng));
    std::vector<Seed> seeds(13);
    std::vector<DataBlock> data(13), orig(13);
    for (std::size_t i = 0; i < data.size(); ++i) {
        seeds[i] = randomSeed(rng);
        data[i] = randomData(rng);
        orig[i] = data[i];
    }
    eng.transformBatch(data.data(), seeds.data(), data.size());
    eng.transformBatch(data.data(), seeds.data(), data.size());
    EXPECT_EQ(data, orig);
}

TEST(CryptoBatchFuzz, BlockMacBatchMatchesScalar)
{
    Rng rng(0xb10c3ac);
    MacEngine eng(generateKeys(rng.next()).macKey);
    for (std::size_t n : batchSizes) {
        std::vector<DataBlock> cts(n);
        std::vector<BlockMacInput> jobs(n);
        for (std::size_t i = 0; i < n; ++i) {
            cts[i] = randomData(rng);
            jobs[i] = {&cts[i], rng.next() & 0xffffffffff80ull,
                       rng.next(), rng.next(),
                       static_cast<std::uint32_t>(rng.next() & 0xff)};
        }
        std::vector<Mac> out(n ? n : 1);
        eng.blockMacBatch(jobs, out.data());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i],
                      eng.blockMac(*jobs[i].ciphertext, jobs[i].addr,
                                   jobs[i].major, jobs[i].minor,
                                   jobs[i].partition))
                << "n=" << n << " i=" << i;
    }
}

TEST(CryptoBatchFuzz, BlockMacLanesMatchScalarAtEveryBatchSize)
{
    // Every batch size 0-67 (each ragged tail after whole 4-lane
    // groups), fresh random keys, ciphertexts and fields. The scalar
    // kernel is called by name, so on an AVX2 host both kernels run;
    // the dispatched batch must equal a blockMac loop either way, and
    // no kernel writes past the batch.
    constexpr Mac sentinel = 0x5e5e5e5e5e5e5e5eull;
    Rng rng(0x51a9a7e5);
    for (std::size_t n = 0; n <= 67; ++n) {
        MacEngine eng(SipKey{rng.next(), rng.next()});
        std::vector<DataBlock> cts(n);
        std::vector<BlockMacInput> jobs(n);
        std::vector<Mac> want(n);
        for (std::size_t i = 0; i < n; ++i) {
            cts[i] = randomData(rng);
            jobs[i] = {&cts[i], rng.next(), rng.next(), rng.next(),
                       static_cast<std::uint32_t>(rng.next())};
            want[i] = eng.blockMac(cts[i], jobs[i].addr, jobs[i].major,
                                   jobs[i].minor, jobs[i].partition);
        }
        std::vector<Mac> out(n + 1, sentinel);
        eng.blockMacBatch(jobs, out.data(), MacKernel::Scalar);
        EXPECT_EQ(std::vector<Mac>(out.begin(), out.end() - 1), want)
            << "scalar, n=" << n;
        EXPECT_EQ(out[n], sentinel) << "scalar, n=" << n;

        if (activeMacKernel() == MacKernel::Avx2) {
            out.assign(n + 1, sentinel);
            eng.blockMacBatch(jobs, out.data(), MacKernel::Avx2);
            EXPECT_EQ(std::vector<Mac>(out.begin(), out.end() - 1), want)
                << "avx2, n=" << n;
            EXPECT_EQ(out[n], sentinel) << "avx2, n=" << n;
        }

        out.assign(n + 1, sentinel);
        eng.blockMacBatch(jobs, out.data());
        EXPECT_EQ(std::vector<Mac>(out.begin(), out.end() - 1), want)
            << macKernelName(activeMacKernel()) << ", n=" << n;
    }
}

TEST(CryptoBatchFuzz, BlockMacIsSipHashOfItsMessage)
{
    // The word-path blockMac is SipHash-2-4 of the 160-byte message
    // ciphertext || addr || major || minor || partition (each a
    // little-endian word) through the byte-buffered hasher; chunkMac
    // likewise over its block MACs, chunk address and partition.
    Rng rng(0x3e55a9e);
    for (int rep = 0; rep < 64; ++rep) {
        const SipKey key{rng.next(), rng.next()};
        MacEngine eng(key);
        const DataBlock ct = randomData(rng);
        const std::uint64_t fields[4] = {rng.next(), rng.next(), rng.next(),
                                         rng.next() & 0xffffffffu};
        SipHasher h(key);
        h.update(ct.data(), ct.size());
        for (std::uint64_t f : fields)
            for (int b = 0; b < 8; ++b) {
                const auto byte = static_cast<std::uint8_t>(f >> (8 * b));
                h.update(&byte, 1);
            }
        EXPECT_EQ(eng.blockMac(ct, fields[0], fields[1], fields[2],
                               static_cast<std::uint32_t>(fields[3])),
                  h.digest());

        std::vector<Mac> macs(rng.below(40));
        for (Mac &m : macs)
            m = rng.next();
        SipHasher c(key);
        for (Mac m : macs)
            c.updateU64(m);
        c.updateU64(fields[0]);
        c.updateU64(fields[3]);
        EXPECT_EQ(eng.chunkMac(macs, fields[0],
                               static_cast<std::uint32_t>(fields[3])),
                  c.digest());
    }
}

TEST(CryptoBatchFuzz, UnavailableLaneKernelPanics)
{
    if (activeMacKernel() == MacKernel::Avx2)
        GTEST_SKIP() << "this CPU runs the AVX2 kernel";
    MacEngine eng(SipKey{1, 2});
    DataBlock ct{};
    const BlockMacInput job{&ct, 0, 0, 0, 0};
    Mac out = 0;
    EXPECT_DEATH(eng.blockMacBatch(std::span(&job, 1), &out,
                                   MacKernel::Avx2),
                 "needs a CPU with AVX2");
}

// The MEE-level batch paths must be bit-identical to their sequential
// equivalents: same stored ciphertexts, same stored MACs, same
// decrypted reads.
TEST(CryptoBatchFuzz, MeeHostWriteRangeMatchesPerBlock)
{
    Rng rng(0x4057e11a);
    mee::SecureMemoryContext batched(meeLayout(), 99);
    mee::SecureMemoryContext serial(meeLayout(), 99);

    constexpr std::size_t blocks = 37; // spans chunk boundaries
    std::vector<std::uint8_t> data(blocks * 128);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next());

    batched.hostWriteRange(0x4000, data.data(), data.size());
    for (std::size_t i = 0; i < blocks; ++i) {
        DataBlock plain;
        std::memcpy(plain.data(), data.data() + i * 128, 128);
        serial.hostWrite(0x4000 + i * 128, plain);
    }

    for (std::size_t i = 0; i < blocks; ++i) {
        LocalAddr a = 0x4000 + i * 128;
        ASSERT_EQ(batched.memory().readBlock(a),
                  serial.memory().readBlock(a))
            << "block " << i;
        ASSERT_EQ(batched.macStore().blockMac(a),
                  serial.macStore().blockMac(a));
        auto rb = batched.deviceRead(a);
        auto rs = serial.deviceRead(a);
        ASSERT_EQ(rb.status, mee::VerifyStatus::Ok);
        ASSERT_EQ(rb.data, rs.data);
    }
    EXPECT_EQ(batched.verifyChunk(0x4000), mee::VerifyStatus::Ok);
}

TEST(CryptoBatchFuzz, MeeDeviceReadBatchMatchesSequential)
{
    Rng rng(0xdeadbeef);
    mee::SecureMemoryContext ctx(meeLayout(), 7);

    // Mixed population: read-only host input, device-written blocks,
    // and never-touched (lazily MAC-initialized) blocks.
    std::vector<LocalAddr> addrs;
    for (std::size_t i = 0; i < 8; ++i) {
        LocalAddr a = 0x8000 + i * 128;
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng.next());
        ctx.hostWrite(a, plain);
        addrs.push_back(a);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        LocalAddr a = 0x20000 + i * 128;
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng.next());
        ctx.deviceWrite(a, plain);
        addrs.push_back(a);
    }
    for (std::size_t i = 0; i < 5; ++i)
        addrs.push_back(0x40000 + i * 128);

    // One tampered block must report MacMismatch in the batch too.
    DataBlock corrupted = ctx.memory().readBlock(0x20000);
    corrupted[3] ^= 0x40;
    ctx.memory().writeBlock(0x20000, corrupted);

    mee::SecureMemoryContext ref(meeLayout(), 7);
    // Rebuild the reference context identically (fresh RNG, same seed).
    Rng rng2(0xdeadbeef);
    for (std::size_t i = 0; i < 8; ++i) {
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng2.next());
        ref.hostWrite(0x8000 + i * 128, plain);
    }
    for (std::size_t i = 0; i < 8; ++i) {
        DataBlock plain;
        for (auto &b : plain)
            b = static_cast<std::uint8_t>(rng2.next());
        ref.deviceWrite(0x20000 + i * 128, plain);
    }
    ref.memory().writeBlock(0x20000, corrupted);

    std::vector<mee::FunctionalReadResult> batch(addrs.size());
    ctx.deviceReadBatch(addrs.data(), batch.data(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        auto seq = ref.deviceRead(addrs[i]);
        ASSERT_EQ(batch[i].status, seq.status) << "i=" << i;
        ASSERT_EQ(batch[i].data, seq.data) << "i=" << i;
    }
    EXPECT_EQ(batch[8].status, mee::VerifyStatus::MacMismatch);
}
