#include "common/logging.hh"

#include <atomic>

namespace shmgpu
{
namespace log_detail
{

namespace
{
// Atomic: a driver may toggle it while sweep workers run.
std::atomic<bool> verboseFlag{true};
} // namespace

void
setVerbose(bool verbose)
{
    verboseFlag.store(verbose, std::memory_order_relaxed);
}

bool
verbose()
{
    return verboseFlag.load(std::memory_order_relaxed);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace log_detail
} // namespace shmgpu
