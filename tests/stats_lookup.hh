/**
 * @file
 * One count read out of a stats tree by its dotted path. It reads the
 * tree's own dump(), which prints every count exactly, so a test sees
 * the same number `run --stats` writes.
 */

#ifndef SHMGPU_TESTS_STATS_LOOKUP_HH
#define SHMGPU_TESTS_STATS_LOOKUP_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "common/stats.hh"

namespace shmgpu::stats
{

/** The count at @p path ("child.name") below @p root; 0, and
 *  *found = false, when no stat has that path. */
inline std::uint64_t
lookupStat(const StatGroup &root, const std::string &path,
           bool *found = nullptr)
{
    std::ostringstream dump;
    root.dump(dump);
    const std::string key =
        (root.name().empty() ? "root" : root.name()) + "." + path + " ";
    std::istringstream lines(dump.str());
    for (std::string line; std::getline(lines, line);) {
        if (line.starts_with(key)) {
            if (found)
                *found = true;
            return std::stoull(line.substr(key.size()));
        }
    }
    if (found)
        *found = false;
    return 0;
}

} // namespace shmgpu::stats

#endif // SHMGPU_TESTS_STATS_LOOKUP_HH
