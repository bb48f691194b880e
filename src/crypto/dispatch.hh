/**
 * @file
 * Runtime CPU dispatch for the batched crypto kernels.
 *
 * The functional MEE path is dominated by AES-CTR pad generation and
 * SipHash block MACs. On x86 the AES rounds map directly onto the
 * AES-NI instructions, and four block MACs fit the four 64-bit lanes
 * of an AVX2 register. Because the simulator must produce
 * bit-identical results on every machine, each hardware path is
 * selected at *runtime* (one cached cpuid probe per kernel) and the
 * portable scalar path is always compiled in as the reference:
 * tests/test_crypto_batch.cc proves the AES-NI kernel and the AVX2
 * block-MAC lanes byte-identical to it. There is no user-set
 * selection.
 */

#ifndef SHMGPU_CRYPTO_DISPATCH_HH
#define SHMGPU_CRYPTO_DISPATCH_HH

namespace shmgpu::crypto
{

/** An AES kernel implementation. */
enum class Backend : int
{
    Scalar = 0, //!< portable C++ (always available, the reference)
    AesNi = 1,  //!< pipelined 128-bit AES-NI, 4/8 blocks in flight
};

/** Human-readable backend name ("scalar", "aesni"). */
const char *backendName(Backend backend);

/** The backend this CPU runs: AesNi when cpuid reports AES-NI and
 *  SSE4.1, Scalar otherwise (probed once, cached). */
Backend activeBackend();

/** A block-MAC batch kernel (MacEngine::blockMacBatch). */
enum class MacKernel : int
{
    Scalar = 0, //!< one register-resident SipHash per block, the reference
    Avx2 = 1,   //!< four SipHash states in the lanes of ymm registers
};

/** Human-readable kernel name ("scalar", "avx2x4"). */
const char *macKernelName(MacKernel kernel);

/** The block-MAC kernel this CPU runs: Avx2 when cpuid reports AVX2
 *  and the OS saves ymm state, Scalar otherwise (probed once,
 *  cached). */
MacKernel activeMacKernel();

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_DISPATCH_HH
