#include "common/config.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace shmgpu
{

namespace
{

std::string
trim(const std::string &s)
{
    auto b = s.find_first_not_of(" \t\r");
    auto e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

} // namespace

Config
Config::fromStream(std::istream &in, const std::string &origin_name)
{
    Config cfg;
    cfg.origin = origin_name;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string stripped = trim(line.substr(0, line.find('#')));
        if (stripped.empty())
            continue;
        auto eq = stripped.find('=');
        if (eq == std::string::npos)
            shm_fatal("{}:{}: expected 'key = value', got '{}'",
                      origin_name, lineno, stripped);
        std::string key = trim(stripped.substr(0, eq));
        std::string value = trim(stripped.substr(eq + 1));
        if (key.empty() || value.empty())
            shm_fatal("{}:{}: empty key or value", origin_name, lineno);
        if (cfg.values.contains(key))
            shm_fatal("{}:{}: duplicate key '{}'", origin_name, lineno,
                      key);
        cfg.values[key] = value;
    }
    return cfg;
}

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        shm_fatal("cannot open config '{}'", path);
    return fromStream(in, path);
}

bool
Config::has(const std::string &key) const
{
    return values.contains(key);
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t fallback)
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    consumed.insert(key);
    try {
        std::size_t used = 0;
        std::uint64_t v = std::stoull(it->second, &used);
        if (used != it->second.size())
            throw std::invalid_argument(it->second);
        return v;
    } catch (const std::exception &) {
        shm_fatal("{}: key '{}' has non-integer value '{}'", origin,
                  key, it->second);
    }
}

double
Config::getDouble(const std::string &key, double fallback)
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    consumed.insert(key);
    try {
        return std::stod(it->second);
    } catch (const std::exception &) {
        shm_fatal("{}: key '{}' has non-numeric value '{}'", origin,
                  key, it->second);
    }
}

bool
Config::getBool(const std::string &key, bool fallback)
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    consumed.insert(key);
    if (it->second == "true" || it->second == "1")
        return true;
    if (it->second == "false" || it->second == "0")
        return false;
    shm_fatal("{}: key '{}' has non-boolean value '{}'", origin, key,
              it->second);
}

std::string
Config::getString(const std::string &key, const std::string &fallback)
{
    auto it = values.find(key);
    if (it == values.end())
        return fallback;
    consumed.insert(key);
    return it->second;
}

std::vector<std::string>
Config::unconsumedKeys() const
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : values)
        if (!consumed.contains(key))
            keys.push_back(key);
    return keys;
}

void
Config::assertConsumed() const
{
    for (const std::string &key : unconsumedKeys())
        shm_fatal("{}: unknown configuration key '{}' (possible typo)",
                  origin, key);
}

} // namespace shmgpu
