#include "crypto/dispatch.hh"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SHMGPU_X86 1
#endif

namespace shmgpu::crypto
{

namespace
{

Backend
probeBackend()
{
#ifdef SHMGPU_X86
    // CPUID leaf 1 ECX feature bits (Intel SDM vol. 2A), spelled out
    // rather than relying on <cpuid.h> macros, which differ between
    // gcc and clang versions.
    constexpr unsigned leaf1EcxSse41 = 1u << 19;
    constexpr unsigned leaf1EcxAes = 1u << 25;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & leaf1EcxAes) &&
        (ecx & leaf1EcxSse41))
        return Backend::AesNi;
#endif
    return Backend::Scalar;
}

MacKernel
probeMacKernel()
{
#ifdef SHMGPU_X86
    // AVX2 needs the CPU feature (leaf 7 EBX) and an OS that saves the
    // ymm registers on a context switch (OSXSAVE set and XCR0's SSE
    // and AVX state bits both on).
    constexpr unsigned leaf1EcxOsxsave = 1u << 27;
    constexpr unsigned leaf1EcxAvx = 1u << 28;
    constexpr unsigned leaf7EbxAvx2 = 1u << 5;
    constexpr std::uint32_t xcr0SseAvx = 0x6;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) ||
        !(ecx & leaf1EcxOsxsave) || !(ecx & leaf1EcxAvx))
        return MacKernel::Scalar;
    std::uint32_t xcr0 = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
    if ((xcr0 & xcr0SseAvx) != xcr0SseAvx)
        return MacKernel::Scalar;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) &&
        (ebx & leaf7EbxAvx2))
        return MacKernel::Avx2;
#endif
    return MacKernel::Scalar;
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
    case Backend::Scalar:
        return "scalar";
    case Backend::AesNi:
        return "aesni";
    }
    return "?";
}

Backend
activeBackend()
{
    static const Backend probed = probeBackend();
    return probed;
}

const char *
macKernelName(MacKernel kernel)
{
    switch (kernel) {
    case MacKernel::Scalar:
        return "scalar";
    case MacKernel::Avx2:
        return "avx2x4";
    }
    return "?";
}

MacKernel
activeMacKernel()
{
    static const MacKernel probed = probeMacKernel();
    return probed;
}

} // namespace shmgpu::crypto
