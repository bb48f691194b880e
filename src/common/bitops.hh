/**
 * @file
 * Small bit-manipulation helpers used throughout the simulator.
 */

#ifndef SHMGPU_COMMON_BITOPS_HH
#define SHMGPU_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

namespace shmgpu
{

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** ceil(log2(v)); v must be nonzero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of power-of-two @p align. */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Ceiling division. */
constexpr std::uint64_t
divCeil(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** Extract bits [lo, lo+len) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned len)
{
    return (v >> lo) & ((len >= 64 ? 0 : (std::uint64_t{1} << len)) - 1);
}

/**
 * Division by a divisor fixed at construction, without a divide
 * instruction per call. With m = floor((2^64 - 1) / d), the high half
 * of n * m lies in (n/d - 1, n/d), so it is floor(n/d) or one less,
 * and one compare of the remainder corrects it. Exact for every
 * 64-bit n and every d >= 1.
 */
class ExactDivider
{
  public:
    constexpr explicit ExactDivider(std::uint64_t d = 1)
        : d(d), magic(~std::uint64_t{0} / d)
    {
    }

    /** floor(n / d). */
    constexpr std::uint64_t
    quot(std::uint64_t n) const
    {
        auto q = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(n) * magic) >> 64);
        return n - q * d >= d ? q + 1 : q;
    }

    /** n % d. */
    constexpr std::uint64_t rem(std::uint64_t n) const
    {
        return n - quot(n) * d;
    }

  private:
    std::uint64_t d;
    std::uint64_t magic;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_BITOPS_HH
