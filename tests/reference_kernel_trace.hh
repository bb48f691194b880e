/**
 * @file
 * The per-op reference op generator: the differential-test oracle for
 * workload::KernelTrace.
 *
 * It derives every op from the spec on every call, the direct way:
 * each op looks its buffer and base up, divides the buffer into
 * sectors, wraps a Streaming ticket with `% sectors`, and splits a
 * Strided ticket into sweep and step with a divide and two modulos.
 * KernelTrace hoists those constants into its constructor and advances
 * the tickets incrementally; tests/test_kernel_trace_diff.cc holds the
 * two equal op by op.
 */

#ifndef SHMGPU_TESTS_REFERENCE_KERNEL_TRACE_HH
#define SHMGPU_TESTS_REFERENCE_KERNEL_TRACE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "workload/trace.hh"

namespace shmgpu::test
{

class ReferenceKernelTrace
{
  public:
    static constexpr std::uint32_t sectorBytes = 32;

    ReferenceKernelTrace(const workload::WorkloadSpec &workload_spec,
                         const std::vector<Addr> &buffer_bases,
                         std::uint32_t kernel_idx, std::uint32_t num_sms)
        : spec(workload_spec), kernelSpec(spec.kernels.at(kernel_idx)),
          bases(buffer_bases), smStates(num_sms),
          streamTickets(kernelSpec.streams.size(), 0)
    {
        for (std::uint32_t sm = 0; sm < num_sms; ++sm) {
            SmState &st = smStates[sm];
            st.rng = Rng(spec.seed * 0x1000193u + kernel_idx * 131u + sm);
            st.finished = kernelSpec.iterationsPerSm == 0;
        }
    }

    bool
    next(SmId sm, workload::TraceOp &op)
    {
        SmState &st = smStates.at(sm);
        if (st.finished)
            return false;

        while (true) {
            if (st.streamCursor >= kernelSpec.streams.size()) {
                st.streamCursor = 0;
                if (++st.iteration >= kernelSpec.iterationsPerSm) {
                    st.finished = true;
                    return false;
                }
            }
            std::uint32_t idx = st.streamCursor++;
            const workload::StreamSpec &stream = kernelSpec.streams[idx];
            if (stream.prob < 1.0 && !st.rng.chance(stream.prob))
                continue;

            op.computeInstrs = kernelSpec.computePerMem;
            op.type = stream.write ? mem::AccessType::Write
                                   : mem::AccessType::Read;
            op.space = spec.buffers.at(stream.buffer).space;
            op.addr = streamAddr(st, idx);
            op.bytes = sectorBytes;
            return true;
        }
    }

  private:
    struct SmState
    {
        std::uint64_t iteration = 0;
        std::uint32_t streamCursor = 0;
        Rng rng{1};
        bool finished = false;
    };

    Addr
    streamAddr(SmState &st, std::uint32_t stream_idx)
    {
        using workload::Pattern;
        const workload::StreamSpec &stream = kernelSpec.streams[stream_idx];
        const workload::BufferSpec &buffer = spec.buffers.at(stream.buffer);
        const std::uint64_t sectors = buffer.bytes / sectorBytes;

        std::uint64_t sector = 0;
        switch (stream.pattern) {
          case Pattern::Streaming:
            sector = streamTickets[stream_idx]++ % sectors;
            break;
          case Pattern::Random:
            sector = st.rng.below(sectors);
            break;
          case Pattern::RandomHot: {
            std::uint64_t hot = std::max<std::uint64_t>(
                static_cast<std::uint64_t>(
                    static_cast<double>(sectors) * stream.hotFraction),
                1);
            if (st.rng.chance(stream.hotProb))
                sector = st.rng.below(hot);
            else
                sector = st.rng.below(sectors);
            break;
          }
          case Pattern::Zipf: {
            // The inverse CDF with its constants derived per sample.
            double n = static_cast<double>(sectors);
            double u = st.rng.uniform();
            double x;
            if (std::abs(stream.zipfAlpha - 1.0) < 1e-9) {
                x = std::exp(u * std::log(n + 1.0));
            } else {
                double scale =
                    std::pow(n + 1.0, 1.0 - stream.zipfAlpha) - 1.0;
                x = std::pow(1.0 + u * scale,
                             1.0 / (1.0 - stream.zipfAlpha));
            }
            std::uint64_t rank = static_cast<std::uint64_t>(x);
            if (rank < 1)
                rank = 1;
            sector = std::min<std::uint64_t>(rank - 1, sectors - 1);
            break;
          }
          case Pattern::Strided: {
            std::uint64_t ticket = streamTickets[stream_idx]++;
            std::uint64_t stride =
                std::max<std::uint64_t>(stream.strideSectors, 1);
            std::uint64_t per_sweep = sectors / stride;
            if (per_sweep == 0)
                per_sweep = 1;
            std::uint64_t sweep = ticket / per_sweep;
            std::uint64_t step = ticket % per_sweep;
            sector = (step * stride + sweep) % sectors;
            break;
          }
        }
        return bases.at(stream.buffer) + sector * sectorBytes;
    }

    const workload::WorkloadSpec &spec;
    const workload::KernelSpec &kernelSpec;
    std::vector<Addr> bases;
    std::vector<SmState> smStates;
    std::vector<std::uint64_t> streamTickets;
};

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_KERNEL_TRACE_HH
