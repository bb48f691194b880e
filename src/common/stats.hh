/**
 * @file
 * Lightweight statistics framework.
 *
 * Components register named Scalar statistics in a StatGroup. Groups can be nested; dumping a group produces a flat,
 * stable "path.name value" listing that tests and benches consume.
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

/** A monotonically accumulating scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(double v) { val += v; return *this; }

    void set(double v) { val = v; }
    double value() const { return val; }
    void reset() { val = 0; }

  private:
    double val = 0;
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

    /** Fetch a scalar's value by dotted path relative to this group;
     *  returns 0 and sets found=false when absent. */
    double lookup(const std::string &path, bool *found = nullptr) const;

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
