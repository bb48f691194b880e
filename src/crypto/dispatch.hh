/**
 * @file
 * Runtime CPU dispatch for the batched AES kernel.
 *
 * The functional MEE path is dominated by AES-CTR pad generation, and
 * on x86 the AES rounds map directly onto the AES-NI instructions.
 * Because the simulator must produce bit-identical results on every
 * machine, the hardware path is selected at *runtime* (one cached
 * cpuid probe) and the portable scalar path is always compiled in as
 * the reference: the AES-NI kernel is proven byte-identical to it by
 * tests/test_crypto_batch.cc. There is no user-set selection.
 */

#ifndef SHMGPU_CRYPTO_DISPATCH_HH
#define SHMGPU_CRYPTO_DISPATCH_HH

namespace shmgpu::crypto
{

/** A crypto kernel implementation. */
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

} // namespace shmgpu::crypto

#endif // SHMGPU_CRYPTO_DISPATCH_HH
