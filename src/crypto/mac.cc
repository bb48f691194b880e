#include "crypto/mac.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SHMGPU_X86 1
#endif

#include "common/logging.hh"

namespace shmgpu::crypto
{

namespace
{

/** Bytes in a block-MAC message: the ciphertext, then the address,
 *  major, minor and partition words. */
constexpr std::uint64_t kBlockMacBytes = blockBytes + 4 * 8;

Mac
blockMacScalar(const SipKey &key, const DataBlock &ciphertext,
               LocalAddr addr, std::uint64_t major, std::uint64_t minor,
               std::uint32_t partition)
{
    SipState s(key);
    for (std::size_t i = 0; i < blockBytes; i += 8)
        s.word(loadLe64(ciphertext.data() + i));
    s.word(addr);
    s.word(major);
    s.word(minor);
    s.word(partition);
    return s.finish(kBlockMacBytes);
}

#ifdef SHMGPU_X86

/**
 * Four SipHash-2-4 states, one per 64-bit lane of each ymm register.
 * AVX2 has no 64-bit rotate: the rotations by 32 and 16 are dword
 * and byte shuffles, the others a shift pair.
 */
struct SipLanes
{
    __m256i v0, v1, v2, v3;
};

__attribute__((target("avx2"))) inline __m256i
rotl4(__m256i x, int b)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, b),
                           _mm256_srli_epi64(x, 64 - b));
}

__attribute__((target("avx2"))) inline void
sipRound4(SipLanes &s, __m256i rot16)
{
    s.v0 = _mm256_add_epi64(s.v0, s.v1);
    s.v1 = _mm256_xor_si256(rotl4(s.v1, 13), s.v0);
    s.v0 = _mm256_shuffle_epi32(s.v0, 0xb1);
    s.v2 = _mm256_add_epi64(s.v2, s.v3);
    s.v3 = _mm256_xor_si256(_mm256_shuffle_epi8(s.v3, rot16), s.v2);
    s.v0 = _mm256_add_epi64(s.v0, s.v3);
    s.v3 = _mm256_xor_si256(rotl4(s.v3, 21), s.v0);
    s.v2 = _mm256_add_epi64(s.v2, s.v1);
    s.v1 = _mm256_xor_si256(rotl4(s.v1, 17), s.v2);
    s.v2 = _mm256_shuffle_epi32(s.v2, 0xb1);
}

__attribute__((target("avx2"))) inline void
compress4(SipLanes &s, __m256i m, __m256i rot16)
{
    s.v3 = _mm256_xor_si256(s.v3, m);
    sipRound4(s, rot16);
    sipRound4(s, rot16);
    s.v0 = _mm256_xor_si256(s.v0, m);
}

/** @p v in all four lanes. */
__attribute__((target("avx2"))) inline __m256i
splat4(std::uint64_t v)
{
    return _mm256_set1_epi64x(static_cast<long long>(v));
}

__attribute__((target("avx2"))) inline __m256i
words4(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    return _mm256_set_epi64x(static_cast<long long>(d),
                             static_cast<long long>(c),
                             static_cast<long long>(b),
                             static_cast<long long>(a));
}

/** Ciphertext words [w / 8, w / 8 + 4) of @p job. */
__attribute__((target("avx2"))) inline __m256i
cipherWords4(const BlockMacInput &job, std::size_t w)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(job.ciphertext->data() + w));
}

/**
 * The block MACs of jobs[0, 4G): lane k of state g hashes job 4g + k.
 * Each group of four ciphertext words per job is loaded as one ymm
 * per job and transposed 4x4, so every compress takes word w of four
 * messages. The G states advance word by word side by side, so their
 * independent round chains overlap.
 */
template <std::size_t G>
__attribute__((target("avx2"))) inline void
macGroups(const SipLanes &init, __m256i rot16, const BlockMacInput *jobs,
          Mac *out)
{
    SipLanes s[G];
    for (std::size_t g = 0; g < G; ++g)
        s[g] = init;
    for (std::size_t w = 0; w < blockBytes; w += 32) {
        __m256i m[G][4];
        for (std::size_t g = 0; g < G; ++g) {
            const BlockMacInput *j = jobs + 4 * g;
            const __m256i a = cipherWords4(j[0], w);
            const __m256i b = cipherWords4(j[1], w);
            const __m256i c = cipherWords4(j[2], w);
            const __m256i d = cipherWords4(j[3], w);
            const __m256i ab_even = _mm256_unpacklo_epi64(a, b);
            const __m256i ab_odd = _mm256_unpackhi_epi64(a, b);
            const __m256i cd_even = _mm256_unpacklo_epi64(c, d);
            const __m256i cd_odd = _mm256_unpackhi_epi64(c, d);
            m[g][0] = _mm256_permute2x128_si256(ab_even, cd_even, 0x20);
            m[g][1] = _mm256_permute2x128_si256(ab_odd, cd_odd, 0x20);
            m[g][2] = _mm256_permute2x128_si256(ab_even, cd_even, 0x31);
            m[g][3] = _mm256_permute2x128_si256(ab_odd, cd_odd, 0x31);
        }
        for (std::size_t k = 0; k < 4; ++k)
            for (std::size_t g = 0; g < G; ++g)
                compress4(s[g], m[g][k], rot16);
    }
    __m256i tail[G][5];
    for (std::size_t g = 0; g < G; ++g) {
        const BlockMacInput *j = jobs + 4 * g;
        tail[g][0] = words4(j[0].addr, j[1].addr, j[2].addr, j[3].addr);
        tail[g][1] = words4(j[0].major, j[1].major, j[2].major, j[3].major);
        tail[g][2] = words4(j[0].minor, j[1].minor, j[2].minor, j[3].minor);
        tail[g][3] = words4(j[0].partition, j[1].partition, j[2].partition,
                            j[3].partition);
        tail[g][4] = splat4(kBlockMacBytes << 56);
    }
    for (std::size_t k = 0; k < 5; ++k)
        for (std::size_t g = 0; g < G; ++g)
            compress4(s[g], tail[g][k], rot16);
    for (std::size_t g = 0; g < G; ++g)
        s[g].v2 = _mm256_xor_si256(s[g].v2, splat4(0xff));
    for (int r = 0; r < 4; ++r)
        for (std::size_t g = 0; g < G; ++g)
            sipRound4(s[g], rot16);
    for (std::size_t g = 0; g < G; ++g) {
        const __m256i tag =
            _mm256_xor_si256(_mm256_xor_si256(s[g].v0, s[g].v1),
                             _mm256_xor_si256(s[g].v2, s[g].v3));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 4 * g), tag);
    }
}

/**
 * Block MACs in the lanes of ymm registers: eight jobs (two 4-lane
 * states) at a time, then one group of four, then a scalar tail of
 * 1-3 jobs.
 */
__attribute__((target("avx2"))) void
blockMacsAvx2(const SipKey &key, const BlockMacInput *jobs, std::size_t n,
              Mac *out)
{
    // Byte shuffle rotating each 64-bit lane left by 16 bits.
    const __m256i rot16 = _mm256_setr_epi8(
        6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13,
        6, 7, 0, 1, 2, 3, 4, 5, 14, 15, 8, 9, 10, 11, 12, 13);
    const SipLanes init{splat4(0x736f6d6570736575ull ^ key.k0),
                        splat4(0x646f72616e646f6dull ^ key.k1),
                        splat4(0x6c7967656e657261ull ^ key.k0),
                        splat4(0x7465646279746573ull ^ key.k1)};

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        macGroups<2>(init, rot16, jobs + i, out + i);
    if (i + 4 <= n) {
        macGroups<1>(init, rot16, jobs + i, out + i);
        i += 4;
    }
    for (; i < n; ++i)
        out[i] = blockMacScalar(key, *jobs[i].ciphertext, jobs[i].addr,
                                jobs[i].major, jobs[i].minor,
                                jobs[i].partition);
}

#endif // SHMGPU_X86

} // namespace

MacEngine::MacEngine(const SipKey &mac_key)
    : key(mac_key), kernel(activeMacKernel())
{
}

Mac
MacEngine::blockMac(const DataBlock &ciphertext, LocalAddr addr,
                    std::uint64_t major, std::uint64_t minor,
                    std::uint32_t partition) const
{
    return blockMacScalar(key, ciphertext, addr, major, minor, partition);
}

void
MacEngine::blockMacBatch(std::span<const BlockMacInput> jobs, Mac *out,
                         MacKernel with) const
{
    if (with == MacKernel::Avx2) {
        shm_assert(activeMacKernel() == MacKernel::Avx2,
                   "the AVX2 block-MAC kernel needs a CPU with AVX2");
#ifdef SHMGPU_X86
        blockMacsAvx2(key, jobs.data(), jobs.size(), out);
        return;
#endif
    }
    for (const BlockMacInput &job : jobs)
        *out++ = blockMacScalar(key, *job.ciphertext, job.addr, job.major,
                                job.minor, job.partition);
}

Mac
MacEngine::chunkMac(std::span<const Mac> block_macs, LocalAddr chunk_addr,
                    std::uint32_t partition) const
{
    SipState s(key);
    for (Mac m : block_macs)
        s.word(m);
    s.word(chunk_addr);
    s.word(partition);
    return s.finish(8 * (block_macs.size() + 2));
}

} // namespace shmgpu::crypto
