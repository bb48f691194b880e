#include "crypto/dispatch.hh"

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

} // namespace shmgpu::crypto
