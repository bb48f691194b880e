/**
 * @file
 * Lightweight statistics framework.
 *
 * Components register named Scalar counts in a StatGroup. Groups can
 * be nested; dumping a group produces a flat, stable "path.name value"
 * listing (or one JSON object) with every count printed exactly.
 *
 * Thread-safety contract: a stats tree belongs to one simulator
 * instance and is confined to the thread driving that simulator.
 * Nothing here is global, so concurrent simulations (core::SweepRunner
 * cells) never share a StatGroup; do not register one stat in two
 * simulators' trees.
 */

#ifndef SHMGPU_COMMON_STATS_HH
#define SHMGPU_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace shmgpu::stats
{

/** A monotonically accumulating integer count. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(std::uint64_t v) { val += v; return *this; }

    void set(std::uint64_t v) { val = v; }
    std::uint64_t value() const { return val; }
    void reset() { val = 0; }

  private:
    std::uint64_t val = 0;
};

/**
 * A named collection of statistics. Children register themselves in a
 * parent to form a tree; dump() walks the tree.
 */
class StatGroup
{
  public:
    StatGroup() = default;
    StatGroup(StatGroup *parent, std::string group_name);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /**
     * Late attachment for members constructed before their parent is
     * known. Must be called at most once, and only on groups created
     * with the default constructor.
     */
    void attach(StatGroup *parent, std::string group_name);

    /** Register a scalar under @p stat_name. The caller keeps ownership
     *  and must outlive this group. */
    void addScalar(const std::string &stat_name, Scalar *s,
                   const std::string &desc = "");

    /** Write "path.name value # desc" lines to @p os. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Write the whole tree as one JSON object. */
    void dumpJson(std::ostream &os, int indent = 0) const;

    const std::string &name() const { return groupName; }

  private:
    struct ScalarEntry { Scalar *stat; std::string desc; };

    std::string groupName;
    StatGroup *parent = nullptr;
    std::map<std::string, ScalarEntry> scalars;
    std::vector<StatGroup *> children;
};

} // namespace shmgpu::stats

#endif // SHMGPU_COMMON_STATS_HH
