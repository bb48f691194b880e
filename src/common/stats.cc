#include "common/stats.hh"

#include "common/logging.hh"

namespace shmgpu::stats
{

StatGroup::StatGroup(StatGroup *parent_group, std::string group_name)
    : groupName(std::move(group_name)), parent(parent_group)
{
    if (parent)
        parent->children.push_back(this);
}

void
StatGroup::attach(StatGroup *parent_group, std::string group_name)
{
    shm_assert(!parent, "StatGroup '{}' attached twice", groupName);
    groupName = std::move(group_name);
    parent = parent_group;
    if (parent)
        parent->children.push_back(this);
}

void
StatGroup::addScalar(const std::string &stat_name, Scalar *s,
                     const std::string &desc)
{
    shm_assert(!scalars.contains(stat_name), "duplicate stat {}", stat_name);
    scalars[stat_name] = {s, desc};
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string path = prefix.empty() ? groupName : prefix + "." + groupName;
    if (path.empty())
        path = "root";
    for (const auto &[n, e] : scalars) {
        os << path << "." << n << " " << e.stat->value();
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << "\n";
    }
    for (const auto *child : children)
        child->dump(os, path);
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    auto pad = [&](int extra) {
        for (int i = 0; i < indent + extra; ++i)
            os << ' ';
    };

    os << "{\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    for (const auto &[n, e] : scalars) {
        sep();
        pad(2);
        os << '"' << n << "\": " << e.stat->value();
    }
    for (const auto *child : children) {
        sep();
        pad(2);
        os << '"' << child->name() << "\": ";
        child->dumpJson(os, indent + 2);
    }
    os << '\n';
    pad(0);
    os << '}';
}

} // namespace shmgpu::stats
