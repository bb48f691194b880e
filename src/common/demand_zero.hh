/**
 * @file
 * Demand-zero arrays for dense, mostly untouched images.
 *
 * Each array is one anonymous private mmap: the kernel hands out
 * zero pages on first touch, so constructing an image of the whole
 * protected space costs neither a memset nor resident memory until a
 * page is written. A heap allocation would not do: glibc serves
 * repeated large allocations from the heap once its dynamic mmap
 * threshold has risen, and calloc then clears them page by page.
 */

#ifndef SHMGPU_COMMON_DEMAND_ZERO_HH
#define SHMGPU_COMMON_DEMAND_ZERO_HH

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace shmgpu
{

/**
 * A fixed-size array of @p T whose elements all start as zero bytes.
 * Movable, not copyable; indexing is unchecked (callers bound their
 * addresses).
 */
template <typename T>
class DemandZeroArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "a zero page must be a valid T");

  public:
    explicit DemandZeroArray(std::size_t n) : count(n)
    {
        if (n == 0)
            return;
        void *p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        shm_assert(p != MAP_FAILED, "mmap of {} bytes failed", bytes());
        elems = static_cast<T *>(p);
    }

    ~DemandZeroArray()
    {
        if (elems)
            munmap(elems, bytes());
    }

    DemandZeroArray(const DemandZeroArray &) = delete;
    DemandZeroArray &operator=(const DemandZeroArray &) = delete;

    DemandZeroArray(DemandZeroArray &&o) noexcept
        : elems(std::exchange(o.elems, nullptr)),
          count(std::exchange(o.count, 0))
    {
    }

    T &operator[](std::size_t i) { return elems[i]; }
    const T &operator[](std::size_t i) const { return elems[i]; }

    T *data() { return elems; }
    const T *data() const { return elems; }
    std::size_t size() const { return count; }

  private:
    std::size_t bytes() const { return count * sizeof(T); }

    T *elems = nullptr;
    std::size_t count;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_DEMAND_ZERO_HH
