#include "common/args.hh"

#include <algorithm>

namespace shmgpu
{

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

Args::Args(int argc, char **argv, int start, std::string command,
           std::initializer_list<const char *> allowed)
    : mode(std::move(command))
{
    for (int i = start; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            shm_fatal("unexpected argument '{}'", arg);
        std::string key, value = "1";
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(2, eq - 2);
            value = arg.substr(eq + 1);
        } else {
            key = arg.substr(2);
            if (i + 1 < argc && argv[i + 1][0] != '-')
                value = argv[++i];
        }
        if (std::find_if(allowed.begin(), allowed.end(),
                         [&](const char *f) { return key == f; }) ==
            allowed.end())
            shm_fatal("unknown flag '--{}' for '{}' (run '{}' for the "
                      "usage)",
                      key, mode, mode.substr(0, mode.find(' ')));
        values[key] = value;
    }
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

} // namespace shmgpu
