#include "workload/parser.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace shmgpu::workload
{

namespace
{

/** @p tok as a finite real; fatal at @p where otherwise. */
double
parseReal(const std::string &tok, const std::string &where)
{
    double v = 0;
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        shm_fatal("{}: bad number '{}'", where, tok);
    return v;
}

double
parseProb(const std::string &tok, const std::string &where)
{
    double v = parseReal(tok, where);
    if (v <= 0.0 || v > 1.0)
        shm_fatal("{}: probability '{}' outside (0, 1]", where, tok);
    return v;
}

MemSpace
parseSpace(const std::string &tok, const std::string &where)
{
    if (tok == "global")
        return MemSpace::Global;
    if (tok == "constant")
        return MemSpace::Constant;
    if (tok == "texture")
        return MemSpace::Texture;
    if (tok == "local")
        return MemSpace::Local;
    shm_fatal("{}: unknown memory space '{}'", where, tok);
}

} // namespace

std::vector<std::string>
lineTokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line.substr(0, line.find('#')));
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

std::uint64_t
parseUnsigned(const std::string &tok, const std::string &where)
{
    std::uint64_t v = 0;
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    if (ec != std::errc() || ptr != end)
        shm_fatal("{}: bad number '{}'", where, tok);
    return v;
}

std::uint64_t
parseSize(const std::string &token, const std::string &where)
{
    shm_assert(!token.empty(), "empty size token");
    std::uint64_t mult = 1;
    std::string digits = token;
    switch (token.back()) {
      case 'K': case 'k': mult = 1ull << 10; break;
      case 'M': case 'm': mult = 1ull << 20; break;
      case 'G': case 'g': mult = 1ull << 30; break;
      default: break;
    }
    if (mult != 1)
        digits = token.substr(0, token.size() - 1);
    const std::uint64_t v = parseUnsigned(digits, where);
    if (v > UINT64_MAX / mult)
        shm_fatal("{}: size '{}' overflows 64 bits", where, token);
    return v * mult;
}

WorkloadSpec
parseWorkload(std::istream &in, const std::string &origin)
{
    WorkloadSpec spec;
    std::map<std::string, std::uint32_t> buffer_ids;
    KernelSpec *kernel = nullptr;

    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string where = origin + ":" + std::to_string(lineno);
        auto toks = lineTokens(line);
        if (toks.empty())
            continue;
        const std::string &cmd = toks[0];

        auto need = [&](std::size_t n) {
            if (toks.size() < n)
                shm_fatal("{}: '{}' needs at least {} arguments", where,
                          cmd, n - 1);
        };

        if (cmd == "workload") {
            need(2);
            spec.name = toks[1];
        } else if (cmd == "seed") {
            need(2);
            spec.seed = parseUnsigned(toks[1], where);
        } else if (cmd == "band") {
            need(3);
            spec.bwUtilLo = parseReal(toks[1], where) / 100.0;
            spec.bwUtilHi = parseReal(toks[2], where) / 100.0;
        } else if (cmd == "buffer") {
            need(3);
            if (buffer_ids.contains(toks[1]))
                shm_fatal("{}: duplicate buffer '{}'", where, toks[1]);
            BufferSpec buf;
            buf.name = toks[1];
            buf.bytes = parseSize(toks[2], where);
            buf.space = toks.size() > 3 ? parseSpace(toks[3], where)
                                        : MemSpace::Global;
            buffer_ids[buf.name] =
                static_cast<std::uint32_t>(spec.buffers.size());
            spec.buffers.push_back(buf);
        } else if (cmd == "kernel") {
            need(2);
            KernelSpec k;
            k.name = toks[1];
            for (std::size_t i = 2; i < toks.size(); ++i) {
                auto eq = toks[i].find('=');
                if (eq == std::string::npos)
                    shm_fatal("{}: expected key=value, got '{}'", where,
                              toks[i]);
                std::string key = toks[i].substr(0, eq);
                std::string val = toks[i].substr(eq + 1);
                if (key == "iters")
                    k.iterationsPerSm = parseUnsigned(val, where);
                else if (key == "compute")
                    k.computePerMem = static_cast<std::uint32_t>(
                        parseUnsigned(val, where));
                else if (key == "window")
                    k.maxOutstanding = static_cast<std::uint32_t>(
                        parseUnsigned(val, where));
                else
                    shm_fatal("{}: unknown kernel option '{}'", where,
                              key);
            }
            spec.kernels.push_back(k);
            kernel = &spec.kernels.back();
        } else if (cmd == "copy" || cmd == "read" || cmd == "write") {
            if (!kernel)
                shm_fatal("{}: '{}' before any kernel", where, cmd);
            need(2);
            auto buf_it = buffer_ids.find(toks[1]);
            if (buf_it == buffer_ids.end())
                shm_fatal("{}: unknown buffer '{}'", where, toks[1]);

            if (cmd == "copy") {
                HostCopySpec copy;
                copy.buffer = buf_it->second;
                copy.declaredReadOnly =
                    toks.size() > 2 && toks[2] == "declared";
                kernel->preCopies.push_back(copy);
                continue;
            }

            need(3);
            StreamSpec stream;
            stream.buffer = buf_it->second;
            stream.write = (cmd == "write");
            std::size_t next = 3;
            const std::string &pattern = toks[2];
            if (pattern == "stream") {
                stream.pattern = Pattern::Streaming;
            } else if (pattern == "random") {
                stream.pattern = Pattern::Random;
            } else if (pattern == "hot") {
                need(5);
                stream.pattern = Pattern::RandomHot;
                stream.hotFraction = parseReal(toks[3], where);
                stream.hotProb = parseReal(toks[4], where);
                next = 5;
            } else if (pattern == "strided") {
                need(4);
                stream.pattern = Pattern::Strided;
                stream.strideSectors = parseUnsigned(toks[3], where);
                next = 4;
            } else if (pattern == "zipf") {
                need(4);
                stream.pattern = Pattern::Zipf;
                stream.zipfAlpha = parseReal(toks[3], where);
                next = 4;
            } else {
                shm_fatal("{}: unknown pattern '{}'", where, pattern);
            }
            for (; next < toks.size(); ++next) {
                if (toks[next].rfind("p=", 0) == 0)
                    stream.prob =
                        parseProb(toks[next].substr(2), where);
                else
                    shm_fatal("{}: unexpected token '{}'", where,
                              toks[next]);
            }
            kernel->streams.push_back(stream);
        } else {
            shm_fatal("{}: unknown directive '{}'", where, cmd);
        }
    }

    // Whole-file checks are located at the last line read.
    validateSpec(spec, origin + ":" + std::to_string(std::max(lineno, 1)));
    return spec;
}

WorkloadSpec
parseWorkloadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        shm_fatal("cannot open workload file '{}'", path);
    return parseWorkload(in, path);
}

} // namespace shmgpu::workload
