/**
 * @file
 * A thread-safe memo table: each key's value is built exactly once.
 *
 * The grid runners share expensive reference simulations (the
 * no-security baselines, the scenario solo runs) across worker
 * threads. OnceMap holds them: the map lock is taken only to find or
 * insert a key's entry, and the build itself runs under that entry's
 * once_flag, so unrelated keys proceed in parallel while threads that
 * need the same key wait for the one in-flight build instead of
 * duplicating it.
 */

#ifndef SHMGPU_COMMON_ONCE_MAP_HH
#define SHMGPU_COMMON_ONCE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

namespace shmgpu
{

/** u64 key -> V, each value built once by the first get(). */
template <typename V>
class OnceMap
{
  public:
    /**
     * The value for @p key, built by `make()` on the first request.
     * The reference stays valid for the map's lifetime (std::map
     * nodes never move).
     */
    template <typename Make>
    const V &
    get(std::uint64_t key, Make &&make)
    {
        Entry *entry = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex);
            entry = &entries[key];
        }
        std::call_once(entry->once, [&] { entry->value = make(); });
        return entry->value;
    }

    /** Number of distinct keys requested so far. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries.size();
    }

  private:
    struct Entry
    {
        std::once_flag once;
        V value;
    };

    mutable std::mutex mutex;
    std::map<std::uint64_t, Entry> entries;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_ONCE_MAP_HH
