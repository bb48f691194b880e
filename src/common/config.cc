#include "common/config.hh"

#include <charconv>
#include <cmath>
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

/** Parse all of @p text as a T; false on anything left over. */
template <typename T>
bool
parseWhole(const std::string &text, T *out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
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
        cfg.values[key] = {value, lineno};
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

std::string
Config::where(const std::string &key) const
{
    auto it = values.find(key);
    if (it == values.end())
        return origin;
    return origin + ":" + std::to_string(it->second.line);
}

const Config::Entry *
Config::consume(const std::string &key)
{
    auto it = values.find(key);
    if (it == values.end())
        return nullptr;
    consumed.insert(key);
    return &it->second;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t fallback)
{
    const Entry *e = consume(key);
    if (!e)
        return fallback;
    std::uint64_t v = 0;
    if (!parseWhole(e->value, &v))
        shm_fatal("{}: key '{}' has non-integer value '{}'", where(key),
                  key, e->value);
    return v;
}

double
Config::getDouble(const std::string &key, double fallback)
{
    const Entry *e = consume(key);
    if (!e)
        return fallback;
    double v = 0;
    if (!parseWhole(e->value, &v) || !std::isfinite(v))
        shm_fatal("{}: key '{}' has non-numeric value '{}'", where(key),
                  key, e->value);
    return v;
}

std::string
Config::getString(const std::string &key, const std::string &fallback)
{
    const Entry *e = consume(key);
    return e ? e->value : fallback;
}

std::vector<std::string>
Config::unconsumedKeys() const
{
    std::vector<std::string> keys;
    for (const auto &[key, entry] : values)
        if (!consumed.contains(key))
            keys.push_back(key);
    return keys;
}

void
Config::assertConsumed() const
{
    for (const std::string &key : unconsumedKeys())
        shm_fatal("{}: unknown configuration key '{}' (possible typo)",
                  where(key), key);
}

} // namespace shmgpu
