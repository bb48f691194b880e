#include "crypto/aes128_batch.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SHMGPU_X86 1
#endif

namespace shmgpu::crypto
{

namespace
{

#ifdef SHMGPU_X86

/**
 * Pipelined AES-NI: groups of 8 (then 4) states walk the ten rounds
 * in lockstep, so the ~4-cycle aesenc latency overlaps across lanes
 * instead of serializing. Round keys come from the scalar schedule —
 * one expansion, both paths.
 */
__attribute__((target("aes,sse2"))) void
encryptAesNi(const std::uint8_t *rk_bytes, const Block16 *in,
             Block16 *out, std::size_t n)
{
    __m128i rk[11];
    for (unsigned r = 0; r < 11; ++r)
        rk[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i s[8];
        for (unsigned l = 0; l < 8; ++l)
            s[l] = _mm_xor_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    in[i + l].data())),
                rk[0]);
        for (unsigned r = 1; r < 10; ++r)
            for (unsigned l = 0; l < 8; ++l)
                s[l] = _mm_aesenc_si128(s[l], rk[r]);
        for (unsigned l = 0; l < 8; ++l)
            s[l] = _mm_aesenclast_si128(s[l], rk[10]);
        for (unsigned l = 0; l < 8; ++l)
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out[i + l].data()), s[l]);
    }
    if (i + 4 <= n) {
        __m128i s[4];
        for (unsigned l = 0; l < 4; ++l)
            s[l] = _mm_xor_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    in[i + l].data())),
                rk[0]);
        for (unsigned r = 1; r < 10; ++r)
            for (unsigned l = 0; l < 4; ++l)
                s[l] = _mm_aesenc_si128(s[l], rk[r]);
        for (unsigned l = 0; l < 4; ++l)
            s[l] = _mm_aesenclast_si128(s[l], rk[10]);
        for (unsigned l = 0; l < 4; ++l)
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(out[i + l].data()), s[l]);
        i += 4;
    }
    for (; i < n; ++i) {
        __m128i s = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in[i].data())),
            rk[0]);
        for (unsigned r = 1; r < 10; ++r)
            s = _mm_aesenc_si128(s, rk[r]);
        s = _mm_aesenclast_si128(s, rk[10]);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out[i].data()), s);
    }
}

#endif // SHMGPU_X86

} // namespace

Aes128Batch::Aes128Batch(const Block16 &key)
    : scalar(key), impl(activeBackend())
{
}

void
Aes128Batch::encryptBlocks(const Block16 *in, Block16 *out,
                           std::size_t n) const
{
#ifdef SHMGPU_X86
    if (impl == Backend::AesNi) {
        encryptAesNi(scalar.roundKeyBytes(), in, out, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = scalar.encrypt(in[i]);
}

} // namespace shmgpu::crypto
