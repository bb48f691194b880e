/**
 * @file
 * The command-line flag parser shared by the shmgpu CLI and the
 * figures driver: value flags (--flag=value / --flag value) and
 * switches (bare --flag).
 *
 * Each command declares the flags its usage line lists, a switch with
 * a trailing '!' ("quiet!"); any other flag is fatal, naming the flag
 * and the command, so a typo never runs silently. So is a value flag
 * without its value, and a switch given one (--quiet=x); a switch
 * never takes the next word. Numeric getters must consume the whole
 * token, so '10k' is an error rather than 10.
 */

#ifndef SHMGPU_COMMON_ARGS_HH
#define SHMGPU_COMMON_ARGS_HH

#include <charconv>
#include <initializer_list>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace shmgpu
{

/** Split a comma list, dropping empty items. */
std::vector<std::string> splitList(const std::string &csv);

class Args
{
  public:
    /**
     * Parse argv[start..argc) for @p command ("shmgpu sweep",
     * "figures"); its first word names the program whose bare
     * invocation prints the usage. @p allowed names the flags, the
     * switches marked with a trailing '!'.
     */
    Args(int argc, char **argv, int start, std::string command,
         std::initializer_list<const char *> allowed);

    std::string get(const std::string &key,
                    const std::string &fallback = "") const;

    bool has(const std::string &key) const { return values.contains(key); }

    /** The command these flags belong to ("shmgpu sweep --scenario"). */
    const std::string &command() const { return mode; }

    /** The comma list under @p key (or @p fallback when absent). */
    std::vector<std::string>
    list(const std::string &key, const std::string &fallback = "") const
    {
        return splitList(get(key, fallback));
    }

    /** @p key parsed as a T, or @p fallback when absent. */
    template <typename T>
    T
    number(const std::string &key, T fallback) const
    {
        auto it = values.find(key);
        return it == values.end() ? fallback : parse<T>(key, it->second);
    }

    /** The comma list under @p key, each item parsed as a T. */
    template <typename T>
    std::vector<T>
    numbers(const std::string &key, std::vector<T> fallback) const
    {
        if (!has(key))
            return fallback;
        std::vector<T> out;
        for (const auto &token : list(key))
            out.push_back(parse<T>(key, token));
        return out;
    }

  private:
    template <typename T>
    T
    parse(const std::string &key, const std::string &token) const
    {
        T value{};
        const char *end = token.data() + token.size();
        auto [ptr, ec] = std::from_chars(token.data(), end, value);
        if (ec != std::errc() || ptr != end)
            shm_fatal("--{} expects {}, got '{}' (in '{}')", key,
                      std::is_floating_point_v<T> ? "a number"
                                                  : "an unsigned integer",
                      token, mode);
        return value;
    }

    std::string mode;
    std::map<std::string, std::string> values;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_ARGS_HH
