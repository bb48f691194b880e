/**
 * @file
 * Fuzz of the .wl and .scn readers and of the CLI's --overrides
 * reader over the committed examples: every line truncation and a
 * seeded set of byte flips of each file must either parse and
 * validate (or apply), or exit through shm_fatal with a message
 * located at <file>:<line>. A panic, an uncaught exception or a signal
 * is a failure. Each input is parsed in a forked child, since a fatal
 * error ends the process.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "core/overrides.hh"
#include "workload/parser.hh"
#include "workload/scenario.hh"

using namespace shmgpu;

namespace
{

/** Byte-flip trials per file. */
constexpr int kFlipTrials = 64;

/** What kind of file an input is. */
enum class FileKind
{
    Workload,
    Scenario,
    Overrides,
};

/** Read @p in as a @p kind file named @p origin, all the way through
 *  what the CLI does with it. */
void
readAs(FileKind kind, std::istream &in, const std::string &origin)
{
    switch (kind) {
      case FileKind::Workload:
        workload::parseWorkload(in, origin);
        break;
      case FileKind::Scenario:
        workload::parseScenario(in, origin);
        break;
      case FileKind::Overrides: {
        Config config = Config::fromStream(in, origin);
        gpu::GpuParams gpu;
        trace::TraceParams trace;
        mem::PolicyKind mdc_policy = mem::PolicyKind::Lru;
        core::applyCliOverrides(config, gpu, trace, mdc_policy);
        break;
      }
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The first @p n lines of @p text. */
std::string
firstLines(const std::string &text, std::size_t n)
{
    std::size_t end = 0;
    for (std::size_t i = 0; i < n && end != std::string::npos; ++i) {
        end = text.find('\n', end);
        if (end != std::string::npos)
            ++end;
    }
    return end == std::string::npos ? text : text.substr(0, end);
}

/** Every line truncation of @p text, then seeded byte flips of it. */
std::vector<std::string>
fuzzInputs(const std::string &text, std::uint64_t seed)
{
    std::vector<std::string> inputs;
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    for (std::size_t n = 0; n <= lines; ++n)
        inputs.push_back(firstLines(text, n));
    Rng rng(seed);
    for (int trial = 0; trial < kFlipTrials; ++trial) {
        std::string flipped = text;
        const int flips = 1 + static_cast<int>(rng.below(3));
        for (int i = 0; i < flips; ++i)
            flipped[rng.below(flipped.size())] ^=
                static_cast<char>(1 + rng.below(255));
        inputs.push_back(flipped);
    }
    return inputs;
}

/**
 * Parse @p text (origin @p origin) in a forked child; an empty string
 * means the property held, otherwise a description of the violation.
 */
std::string
checkInChild(FileKind kind, const std::string &text,
             const std::string &origin)
{
    int fds[2];
    if (pipe(fds) != 0)
        return "pipe failed";
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        return "fork failed";
    if (pid == 0) {
        dup2(fds[1], STDERR_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::istringstream in(text);
        readAs(kind, in, origin);
        _exit(0);
    }
    close(fds[1]);
    std::string err;
    char buf[512];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
        err.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);

    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status)) +
               ": " + err;
    const int code = WEXITSTATUS(status);
    if (code == 0)
        return "";
    // fatal: <origin>:<line>: <message>
    const std::string head = "fatal: " + origin + ":";
    std::size_t pos = head.size();
    if (code != 1 || err.compare(0, head.size(), head) != 0)
        return "exit " + std::to_string(code) + ", not a located fatal: " +
               err;
    while (pos < err.size() && std::isdigit(static_cast<unsigned char>(
                                   err[pos])))
        ++pos;
    if (pos == head.size() || err.compare(pos, 2, ": ") != 0)
        return "fatal without a line number: " + err;
    return "";
}

void
fuzzFile(FileKind kind, const std::string &path, std::uint64_t seed)
{
    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty()) << path;
    // The intact file must parse: the fuzz mutates working input.
    ASSERT_EQ(checkInChild(kind, text, path), "") << path;
    const auto inputs = fuzzInputs(text, seed);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_EQ(checkInChild(kind, inputs[i], path), "")
            << path << " input " << i << ":\n"
            << inputs[i];
}

const std::string kExamples = SHMGPU_EXAMPLES_DIR;

} // namespace

TEST(ParserFuzz, WorkloadFilesFailLocatedOrParse)
{
    std::vector<std::string> paths;
    for (const auto &entry : std::filesystem::directory_iterator(
             kExamples + "/workloads"))
        if (entry.path().extension() == ".wl")
            paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    ASSERT_FALSE(paths.empty());
    std::uint64_t seed = 1;
    for (const auto &path : paths)
        fuzzFile(FileKind::Workload, path, seed++);
}

TEST(ParserFuzz, ScenarioFileFailsLocatedOrParses)
{
    fuzzFile(FileKind::Scenario, kExamples + "/scenarios/mix2.scn", 7);
}

TEST(ParserFuzz, OverridesFileFailsLocatedOrApplies)
{
    fuzzFile(FileKind::Overrides, kExamples + "/overrides/turing.cfg", 11);
}
