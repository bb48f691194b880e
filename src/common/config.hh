/**
 * @file
 * Key-value configuration files.
 *
 * Simple "key = value" lines with '#' comments; consumers pull typed
 * values and finally call assertConsumed() so misspelled keys fail
 * loudly instead of being silently ignored (a classic simulator
 * foot-gun). Every error names the offending line as <origin>:<line>.
 */

#ifndef SHMGPU_COMMON_CONFIG_HH
#define SHMGPU_COMMON_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace shmgpu
{

/** A parsed configuration file. */
class Config
{
  public:
    /** Parse "key = value" lines; fatal with origin:line on errors. */
    static Config fromStream(std::istream &in,
                             const std::string &origin = "<stream>");
    static Config fromFile(const std::string &path);

    bool has(const std::string &key) const;

    /** @{ Typed getters; fatal on malformed values (numbers must be the
     *  whole value, and finite). The key is marked consumed. */
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback);
    double getDouble(const std::string &key, double fallback);
    std::string getString(const std::string &key,
                          const std::string &fallback);
    /** @} */

    /** "<origin>:<line>" of @p key's line, to locate an error about its
     *  value ("<origin>" when the key is absent). */
    std::string where(const std::string &key) const;

    /** Keys no getter has consumed yet, in sorted order. */
    std::vector<std::string> unconsumedKeys() const;

    /** Fatal if any key was never consumed (likely a typo). */
    void assertConsumed() const;

    std::size_t size() const { return values.size(); }

  private:
    struct Entry
    {
        std::string value;
        int line = 0;
    };

    /** The entry of @p key, marked consumed; null when absent. */
    const Entry *consume(const std::string &key);

    std::string origin;
    std::map<std::string, Entry> values;
    std::set<std::string> consumed;
};

} // namespace shmgpu

#endif // SHMGPU_COMMON_CONFIG_HH
