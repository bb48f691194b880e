#include "common/args.hh"

#include <algorithm>
#include <string_view>

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
        const auto eq = arg.find('=');
        const std::string key =
            arg.substr(2, eq == std::string::npos ? eq : eq - 2);
        const auto flag = std::find_if(
            allowed.begin(), allowed.end(), [&](std::string_view f) {
                return f.substr(0, f.find('!')) == key;
            });
        if (flag == allowed.end())
            shm_fatal("unknown flag '--{}' for '{}' (run '{}' for the "
                      "usage)",
                      key, mode, mode.substr(0, mode.find(' ')));
        const bool is_switch = std::string_view(*flag).ends_with('!');
        std::string value;
        if (eq != std::string::npos) {
            if (is_switch)
                shm_fatal("'--{}' takes no value (in '{}')", key, mode);
            value = arg.substr(eq + 1);
        } else if (!is_switch) {
            if (i + 1 == argc || argv[i + 1][0] == '-')
                shm_fatal("'--{}' needs a value (in '{}')", key, mode);
            value = argv[++i];
        }
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
