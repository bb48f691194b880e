/**
 * @file
 * gem5-style error reporting: panic and fatal.
 *
 * panic()  — a simulator bug: something that should never happen
 *            regardless of user input. Aborts.
 * fatal()  — a user error (bad configuration, invalid arguments).
 *            Exits with an error code.
 */

#ifndef SHMGPU_COMMON_LOGGING_HH
#define SHMGPU_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace shmgpu
{

namespace log_detail
{

/** Recursively substitute "{}" placeholders with the arguments. */
inline void
format(std::ostringstream &os, const char *fmt)
{
    os << fmt;
}

template <typename T, typename... Args>
void
format(std::ostringstream &os, const char *fmt, T &&value, Args &&...rest)
{
    for (const char *p = fmt; *p; ++p) {
        if (p[0] == '{' && p[1] == '}') {
            os << value;
            format(os, p + 2, std::forward<Args>(rest)...);
            return;
        }
        os << *p;
    }
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Set the verbosity flag. Nothing in the simulator reads it; the
 *  perfbench driver still sets it. */
void setVerbose(bool verbose);
bool verbose();

template <typename... Args>
std::string
formatStr(const char *fmt, Args &&...args)
{
    std::ostringstream os;
    format(os, fmt, std::forward<Args>(args)...);
    return os.str();
}

} // namespace log_detail

/** "@p where: " to locate a message, or "" when @p where is empty. */
inline std::string
locationPrefix(const std::string &where)
{
    return where.empty() ? std::string() : where + ": ";
}

} // namespace shmgpu

#define shm_panic(...)                                                      \
    ::shmgpu::log_detail::panicImpl(                                        \
        __FILE__, __LINE__, ::shmgpu::log_detail::formatStr(__VA_ARGS__))

#define shm_fatal(...)                                                      \
    ::shmgpu::log_detail::fatalImpl(                                        \
        __FILE__, __LINE__, ::shmgpu::log_detail::formatStr(__VA_ARGS__))

/** Always-on invariant check with formatted message. */
#define shm_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::shmgpu::log_detail::panicImpl(                                \
                __FILE__, __LINE__,                                         \
                std::string("assertion '" #cond "' failed: ") +             \
                    ::shmgpu::log_detail::formatStr(__VA_ARGS__));          \
        }                                                                   \
    } while (0)

#endif // SHMGPU_COMMON_LOGGING_HH
