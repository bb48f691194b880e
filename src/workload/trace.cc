#include "workload/trace.hh"

namespace shmgpu::workload
{

KernelTrace::KernelTrace(const WorkloadSpec &spec,
                         const std::vector<Addr> &buffer_bases,
                         std::uint32_t kernel_idx, std::uint32_t num_sms)
    : numSms(num_sms), liveSms(num_sms)
{
    const KernelSpec &kernel = spec.kernels.at(kernel_idx);
    shm_assert(numSms > 0, "need at least one SM");
    shm_assert(!kernel.streams.empty(), "kernel '{}' has no streams",
               kernel.name);
    iterationsPerSm = kernel.iterationsPerSm;
    computePerMem = kernel.computePerMem;

    streams.reserve(kernel.streams.size());
    for (const StreamSpec &ss : kernel.streams) {
        const BufferSpec &buffer = spec.buffers.at(ss.buffer);
        Stream &s = streams.emplace_back();
        s.base = buffer_bases.at(ss.buffer);
        s.sectors = buffer.bytes / sectorBytes;
        shm_assert(s.sectors > 0, "buffer '{}' smaller than a sector",
                   buffer.name);
        s.pattern = ss.pattern;
        s.write = ss.write;
        s.space = buffer.space;
        s.prob = ss.prob;
        if (ss.pattern == Pattern::RandomHot) {
            s.hot = std::max<std::uint64_t>(
                static_cast<std::uint64_t>(
                    static_cast<double>(s.sectors) * ss.hotFraction),
                1);
            s.hotProb = ss.hotProb;
        } else if (ss.pattern == Pattern::Strided) {
            const std::uint64_t stride =
                std::max<std::uint64_t>(ss.strideSectors, 1);
            s.strideStep = stride % s.sectors;
            s.perSweep = std::max<std::uint64_t>(s.sectors / stride, 1);
        } else if (ss.pattern == Pattern::Zipf) {
            const double n = static_cast<double>(s.sectors);
            if (std::abs(ss.zipfAlpha - 1.0) < 1e-9) {
                s.zipfScale = std::log(n + 1.0);
                s.zipfInvExp = 0; // log path
            } else {
                s.zipfScale = std::pow(n + 1.0, 1.0 - ss.zipfAlpha) - 1.0;
                s.zipfInvExp = 1.0 / (1.0 - ss.zipfAlpha);
            }
        }
    }

    smStates.resize(numSms);
    for (std::uint32_t sm = 0; sm < numSms; ++sm) {
        SmState &st = smStates[sm];
        st.rng = Rng(spec.seed * 0x1000193u + kernel_idx * 131u + sm);
        st.finished = iterationsPerSm == 0;
    }
    if (iterationsPerSm == 0)
        liveSms = 0;
}

} // namespace shmgpu::workload
