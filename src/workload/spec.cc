#include "workload/spec.hh"

#include "common/bitops.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace shmgpu::workload
{

void
validateSpec(const WorkloadSpec &spec, const std::string &where)
{
    const std::string at = locationPrefix(where);
    if (spec.name.empty())
        shm_fatal("{}workload has no name", at);
    if (spec.buffers.empty())
        shm_fatal("{}workload '{}' declares no buffers", at, spec.name);
    if (spec.kernels.empty())
        shm_fatal("{}workload '{}' declares no kernels", at, spec.name);

    for (const auto &buf : spec.buffers) {
        if (buf.bytes < 32)
            shm_fatal("{}buffer '{}' in '{}' is smaller than a sector",
                      at, buf.name, spec.name);
    }

    for (const auto &k : spec.kernels) {
        if (k.streams.empty())
            shm_fatal("{}kernel '{}' in '{}' has no streams", at, k.name,
                      spec.name);
        for (const auto &st : k.streams) {
            if (st.buffer >= spec.buffers.size())
                shm_fatal("{}kernel '{}' in '{}' references buffer {} "
                          "(only {} declared)",
                          at, k.name, spec.name, st.buffer,
                          spec.buffers.size());
            if (st.prob <= 0.0 || st.prob > 1.0)
                shm_fatal("{}kernel '{}' in '{}': stream probability {} "
                          "outside (0, 1]",
                          at, k.name, spec.name, st.prob);
            if (st.pattern == Pattern::RandomHot &&
                (st.hotFraction <= 0.0 || st.hotFraction > 1.0 ||
                 st.hotProb < 0.0 || st.hotProb > 1.0)) {
                shm_fatal("{}kernel '{}' in '{}': invalid hot-set "
                          "parameters",
                          at, k.name, spec.name);
            }
            if (st.pattern == Pattern::Strided && st.strideSectors == 0)
                shm_fatal("{}kernel '{}' in '{}': zero stride", at, k.name,
                          spec.name);
            if (st.pattern == Pattern::Zipf &&
                (st.zipfAlpha < 0.0 || st.zipfAlpha > 8.0))
                shm_fatal("{}kernel '{}' in '{}': zipf alpha {} outside "
                          "[0, 8]",
                          at, k.name, spec.name, st.zipfAlpha);
        }
        for (const auto &copy : k.preCopies) {
            if (copy.buffer >= spec.buffers.size())
                shm_fatal("{}kernel '{}' in '{}': host copy references "
                          "buffer {}",
                          at, k.name, spec.name, copy.buffer);
        }
    }
}

std::vector<Addr>
layoutBuffers(const WorkloadSpec &spec, Addr base, Addr alignment)
{
    shm_assert(isPowerOf2(alignment), "alignment must be pow2");
    std::vector<Addr> offsets;
    offsets.reserve(spec.buffers.size());
    Addr cursor = base;
    for (const auto &buf : spec.buffers) {
        shm_assert(buf.bytes > 0, "buffer '{}' in '{}' is empty",
                   buf.name, spec.name);
        cursor = alignUp(cursor, alignment);
        offsets.push_back(cursor);
        cursor += buf.bytes;
    }
    return offsets;
}

Addr
footprintBytes(const WorkloadSpec &spec)
{
    std::vector<Addr> offsets = layoutBuffers(spec);
    if (offsets.empty())
        return 0;
    return offsets.back() + spec.buffers.back().bytes;
}

std::uint64_t
contentHash(const WorkloadSpec &spec)
{
    // Fingerprint (common/fingerprint.hh) is the shared accumulator;
    // feeding every simulation-relevant field in declaration order
    // keeps this the authoritative "two specs simulate identically"
    // predicate for both the in-memory baseline cache and the on-disk
    // sweep result cache.
    Fingerprint h;
    h.str(spec.name);
    h.str(spec.suite);
    h.u64(spec.seed);
    h.u64(spec.buffers.size());
    for (const auto &buf : spec.buffers) {
        h.str(buf.name);
        h.u64(buf.bytes);
        h.u64(static_cast<std::uint64_t>(buf.space));
    }
    h.u64(spec.kernels.size());
    for (const auto &k : spec.kernels) {
        h.str(k.name);
        h.u64(k.iterationsPerSm);
        h.u64(k.computePerMem);
        h.u64(k.maxOutstanding);
        h.u64(k.streams.size());
        for (const auto &st : k.streams) {
            h.u64(st.buffer);
            h.u64(static_cast<std::uint64_t>(st.pattern));
            h.u64(st.write ? 1 : 0);
            h.f64(st.prob);
            h.f64(st.hotFraction);
            h.f64(st.hotProb);
            h.u64(st.strideSectors);
            h.f64(st.zipfAlpha);
        }
        h.u64(k.preCopies.size());
        for (const auto &copy : k.preCopies) {
            h.u64(copy.buffer);
            h.u64(copy.marksReadOnly ? 1 : 0);
            h.u64(copy.declaredReadOnly ? 1 : 0);
        }
    }
    // bwUtilLo/bwUtilHi/specialSpaces are documentation-only fields
    // that never reach the simulator, so they stay out of the hash.
    return h.value();
}

} // namespace shmgpu::workload
