#include "workload/trace_file.hh"

#include <cstdio>
#include <cstring>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace shmgpu::workload
{

namespace
{

constexpr char kMagic[4] = {'S', 'H', 'M', 'T'};
constexpr std::uint32_t kVersion = 2;

void
putBytes(std::FILE *f, const void *data, std::size_t len)
{
    if (std::fwrite(data, 1, len, f) != len)
        shm_fatal("trace write failed");
}

template <typename T>
void
putPod(std::FILE *f, T v)
{
    putBytes(f, &v, sizeof(v));
}

/** Closes the FILE on every tryReadTrace exit path. */
struct FileCloser
{
    std::FILE *file;
    ~FileCloser()
    {
        if (file)
            std::fclose(file);
    }
};

/**
 * Error-returning binary cursor over one trace file. Every read is
 * checked; element-count fields are validated against the bytes left
 * in the file before anything is allocated, so a corrupt count can
 * produce only an error message, never a huge reserve() or a
 * minutes-long parse loop.
 */
class TraceReader
{
  public:
    TraceReader(std::FILE *f, const std::string &path,
                std::string &error)
        : file(f), filePath(path), errorOut(error)
    {
        if (std::fseek(file, 0, SEEK_END) == 0) {
            long end = std::ftell(file);
            if (end > 0)
                fileBytes = static_cast<std::uint64_t>(end);
        }
        std::fseek(file, 0, SEEK_SET);
    }

    bool
    read(void *data, std::size_t len, const char *what)
    {
        if (std::fread(data, 1, len, file) != len) {
            errorOut = "trace '" + filePath +
                       "' is truncated (failed reading " + what + ")";
            return false;
        }
        return true;
    }

    template <typename T>
    bool
    readPod(T &v, const char *what)
    {
        return read(&v, sizeof(v), what);
    }

    /** Bytes between the cursor and the end of the file. */
    std::uint64_t
    remaining() const
    {
        long pos = std::ftell(file);
        if (pos < 0 || static_cast<std::uint64_t>(pos) > fileBytes)
            return 0;
        return fileBytes - static_cast<std::uint64_t>(pos);
    }

    /**
     * Check that @p count elements of @p elem_bytes each can still
     * fit in the file; sets the error and returns false otherwise.
     */
    bool
    boundCount(std::uint64_t count, std::uint64_t elem_bytes,
               const char *what)
    {
        if (count > remaining() / elem_bytes) {
            errorOut = "trace '" + filePath + "' is corrupt: " + what +
                       " count " + std::to_string(count) +
                       " exceeds the file size";
            return false;
        }
        return true;
    }

  private:
    std::FILE *file;
    std::uint64_t fileBytes = 0;
    const std::string &filePath;
    std::string &errorOut;
};

/** Serialized sizes of the variable-length elements. */
constexpr std::uint64_t kCopyBytes = 8 + 8 + 1;
constexpr std::uint64_t kRecordBytes = 8 + 1 + 1 + 1 + 1 + 4;
/** Minimum per-kernel footprint: the two counts and the window. */
constexpr std::uint64_t kKernelHeaderBytes = 4 + 4 + 8;

} // namespace

Trace
generateTrace(const WorkloadSpec &spec, std::uint32_t num_sms)
{
    Trace trace;
    trace.numSms = num_sms;
    std::vector<Addr> bases = layoutBuffers(spec);

    for (std::uint32_t k = 0; k < spec.kernels.size(); ++k) {
        TraceKernel out;
        out.window = spec.kernels[k].maxOutstanding;
        for (const auto &copy : spec.kernels[k].preCopies) {
            if (!copy.marksReadOnly)
                continue;
            out.copies.push_back({bases.at(copy.buffer),
                                  spec.buffers.at(copy.buffer).bytes,
                                  copy.declaredReadOnly});
        }

        KernelTrace gen(spec, bases, k, num_sms);
        bool live = true;
        while (live) {
            live = false;
            for (SmId sm = 0; sm < num_sms; ++sm) {
                TraceOp op;
                if (gen.next(sm, op)) {
                    live = true;
                    out.records.push_back({op, sm});
                }
            }
        }
        trace.kernels.push_back(std::move(out));
    }
    return trace;
}

std::uint64_t
contentHash(const Trace &trace)
{
    Fingerprint fp;
    fp.u64(trace.numSms);
    fp.u64(trace.kernels.size());
    for (const auto &kernel : trace.kernels) {
        fp.u64(kernel.copies.size());
        for (const auto &copy : kernel.copies) {
            fp.u64(copy.base);
            fp.u64(copy.bytes);
            fp.boolean(copy.declaredReadOnly);
        }
        fp.u64(kernel.window);
        fp.u64(kernel.records.size());
        for (const auto &rec : kernel.records) {
            fp.u64(rec.op.addr);
            fp.u64(rec.sm);
            fp.u64(rec.op.computeInstrs);
            fp.u64(static_cast<std::uint64_t>(rec.op.type));
            fp.u64(static_cast<std::uint64_t>(rec.op.space));
            fp.u64(rec.op.bytes);
        }
    }
    return fp.value();
}

void
writeTrace(const Trace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        shm_fatal("cannot open '{}' for writing", path);

    putBytes(f, kMagic, sizeof(kMagic));
    putPod<std::uint32_t>(f, kVersion);
    putPod<std::uint32_t>(f, trace.numSms);
    putPod<std::uint32_t>(f,
                          static_cast<std::uint32_t>(trace.kernels.size()));

    for (const auto &kernel : trace.kernels) {
        putPod<std::uint32_t>(
            f, static_cast<std::uint32_t>(kernel.copies.size()));
        for (const auto &copy : kernel.copies) {
            putPod<std::uint64_t>(f, copy.base);
            putPod<std::uint64_t>(f, copy.bytes);
            putPod<std::uint8_t>(f, copy.declaredReadOnly ? 1 : 0);
        }
        putPod<std::uint32_t>(f, kernel.window);
        putPod<std::uint64_t>(f, kernel.records.size());
        for (const auto &rec : kernel.records) {
            putPod<std::uint64_t>(f, rec.op.addr);
            putPod<std::uint8_t>(f, static_cast<std::uint8_t>(rec.sm));
            putPod<std::uint8_t>(
                f, static_cast<std::uint8_t>(rec.op.computeInstrs));
            putPod<std::uint8_t>(
                f, rec.op.type == mem::AccessType::Write ? 1 : 0);
            putPod<std::uint8_t>(
                f, static_cast<std::uint8_t>(rec.op.space));
            putPod<std::uint32_t>(f, rec.op.bytes);
        }
    }
    std::fclose(f);
}

bool
tryReadTrace(const std::string &path, Trace &out, std::string &error)
{
    error.clear();
    out = Trace{};

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open trace '" + path + "'";
        return false;
    }
    FileCloser closer{f};
    TraceReader in(f, path, error);

    char magic[4];
    if (!in.read(magic, sizeof(magic), "the magic"))
        return false;
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        error = "'" + path + "' is not a shmgpu trace";
        return false;
    }
    std::uint32_t version = 0;
    if (!in.readPod(version, "the version"))
        return false;
    if (version != kVersion) {
        error = "trace '" + path + "' has unsupported version " +
                std::to_string(version) + " (expected " +
                std::to_string(kVersion) + ")";
        return false;
    }

    std::uint32_t kernels = 0;
    if (!in.readPod(out.numSms, "the SM count") ||
        !in.readPod(kernels, "the kernel count"))
        return false;
    if (!in.boundCount(kernels, kKernelHeaderBytes, "kernel"))
        return false;

    out.kernels.reserve(kernels);
    for (std::uint32_t k = 0; k < kernels; ++k) {
        TraceKernel kernel;
        std::uint32_t copies = 0;
        if (!in.readPod(copies, "a host-copy count"))
            return false;
        if (!in.boundCount(copies, kCopyBytes, "host-copy"))
            return false;
        kernel.copies.reserve(copies);
        for (std::uint32_t c = 0; c < copies; ++c) {
            TraceCopy copy;
            std::uint8_t declared_ro = 0;
            if (!in.readPod(copy.base, "a copy base") ||
                !in.readPod(copy.bytes, "a copy length") ||
                !in.readPod(declared_ro, "a copy read-only flag"))
                return false;
            copy.declaredReadOnly = declared_ro != 0;
            kernel.copies.push_back(copy);
        }
        if (!in.readPod(kernel.window, "a load window"))
            return false;

        std::uint64_t records = 0;
        if (!in.readPod(records, "an op count"))
            return false;
        if (!in.boundCount(records, kRecordBytes, "op"))
            return false;
        kernel.records.reserve(records);
        for (std::uint64_t r = 0; r < records; ++r) {
            TraceRecord rec;
            std::uint8_t sm = 0, compute = 0, is_write = 0, space = 0;
            if (!in.readPod(rec.op.addr, "an op address") ||
                !in.readPod(sm, "an op SM id") ||
                !in.readPod(compute, "an op compute count") ||
                !in.readPod(is_write, "an op type") ||
                !in.readPod(space, "an op space") ||
                !in.readPod(rec.op.bytes, "an op length"))
                return false;
            if (sm >= out.numSms) {
                error = "trace '" + path + "' is corrupt: op " +
                        std::to_string(r) + " of kernel " +
                        std::to_string(k) + " names SM " +
                        std::to_string(sm) + " but the header has " +
                        std::to_string(out.numSms) + " SMs";
                return false;
            }
            if (space >
                static_cast<std::uint8_t>(MemSpace::Instruction)) {
                error = "trace '" + path + "' is corrupt: op " +
                        std::to_string(r) + " of kernel " +
                        std::to_string(k) +
                        " has invalid memory space " +
                        std::to_string(space);
                return false;
            }
            rec.sm = sm;
            rec.op.computeInstrs = compute;
            rec.op.type = is_write ? mem::AccessType::Write
                                   : mem::AccessType::Read;
            rec.op.space = static_cast<MemSpace>(space);
            kernel.records.push_back(rec);
        }
        out.kernels.push_back(std::move(kernel));
    }
    if (in.remaining() != 0) {
        error = "trace '" + path + "' has " +
                std::to_string(in.remaining()) +
                " bytes of trailing garbage";
        return false;
    }
    return true;
}

Trace
readTrace(const std::string &path)
{
    Trace trace;
    std::string error;
    if (!tryReadTrace(path, trace, error))
        shm_fatal("{}", error);
    return trace;
}

TraceReplay::TraceReplay(const Trace &trace, std::uint32_t kernel_idx)
    : kernel(&trace.kernels.at(kernel_idx)), perSm(trace.numSms),
      cursors(trace.numSms, 0)
{
    for (std::uint32_t i = 0; i < kernel->records.size(); ++i)
        perSm.at(kernel->records[i].sm).push_back(i);
    for (SmId sm = 0; sm < perSm.size(); ++sm)
        if (perSm[sm].empty())
            ++drained;
}

bool
TraceReplay::next(SmId sm, TraceOp &op)
{
    auto &queue = perSm.at(sm);
    std::size_t &cursor = cursors.at(sm);
    if (cursor >= queue.size())
        return false;
    op = kernel->records[queue[cursor++]].op;
    if (cursor == queue.size())
        ++drained;
    return true;
}

} // namespace shmgpu::workload
