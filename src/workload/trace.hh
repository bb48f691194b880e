/**
 * @file
 * Per-SM instruction/access trace generation from a WorkloadSpec.
 *
 * Each SM executes `iterationsPerSm` iterations of the kernel's stream
 * list. Streaming streams advance one grid-stride front: SM s touches
 * sectors s, s+numSms, s+2*numSms, ... so the GPU sweeps the buffer
 * densely and in order, the way coalesced thread blocks do, and every
 * block of a touched chunk is covered in a short burst — the
 * streaming property the paper's detector keys on. Random streams
 * sample sectors uniformly; hot-set streams model locality.
 * Generation is deterministic per (workload seed, kernel, SM).
 */

#ifndef SHMGPU_WORKLOAD_TRACE_HH
#define SHMGPU_WORKLOAD_TRACE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "workload/spec.hh"

namespace shmgpu::workload
{

/** One memory instruction plus its preceding compute instructions. */
struct TraceOp
{
    std::uint32_t computeInstrs = 0;
    mem::AccessType type = mem::AccessType::Read;
    MemSpace space = MemSpace::Global;
    Addr addr = 0;
    std::uint32_t bytes = 32;
};

/**
 * Generates the access stream of one kernel for every SM.
 *
 * Every per-stream constant (base, sector count, space, hot-set size,
 * stride, sectors per sweep, Zipf constants) is computed once in the
 * constructor, and the global tickets of Streaming and Strided streams
 * advance incrementally, so next() does no division and looks nothing
 * up. It is defined here so the kernel engine can inline it.
 */
class KernelTrace
{
  public:
    static constexpr std::uint32_t sectorBytes = 32;

    KernelTrace(const WorkloadSpec &spec,
                const std::vector<Addr> &buffer_bases,
                std::uint32_t kernel_idx, std::uint32_t num_sms);

    /**
     * Produce the next op for @p sm. Returns false when that SM has
     * exhausted its iterations for this kernel.
     */
    bool
    next(SmId sm, TraceOp &op)
    {
        shm_assert(sm < numSms, "SM {} out of range", sm);
        SmState &st = smStates[sm];
        if (st.finished)
            return false;

        while (true) {
            if (st.streamCursor >= streams.size()) {
                st.streamCursor = 0;
                if (++st.iteration >= iterationsPerSm) {
                    st.finished = true;
                    --liveSms;
                    return false;
                }
            }
            Stream &stream = streams[st.streamCursor++];
            if (stream.prob < 1.0 && !st.rng.chance(stream.prob))
                continue;

            op.computeInstrs = computePerMem;
            op.type = stream.write ? mem::AccessType::Write
                                   : mem::AccessType::Read;
            op.space = stream.space;
            op.addr = stream.base + nextSector(stream, st.rng) * sectorBytes;
            op.bytes = sectorBytes;
            return true;
        }
    }

    /** True once every SM has drained. */
    bool done() const { return liveSms == 0; }

  private:
    struct SmState
    {
        std::uint64_t iteration = 0;
        std::uint32_t streamCursor = 0; //!< next stream in the iteration
        Rng rng{1};
        bool finished = false;
    };

    /** One stream's constants and, for Streaming and Strided, its
     *  global ticket state. */
    struct Stream
    {
        Addr base = 0;
        std::uint64_t sectors = 0; //!< > 0
        Pattern pattern = Pattern::Streaming;
        bool write = false;
        MemSpace space = MemSpace::Global;
        double prob = 1.0;
        /** @{ RandomHot: hot-set sectors (>= 1) and hit chance. */
        std::uint64_t hot = 1;
        double hotProb = 0;
        /** @} */
        /** @{ Strided: the stride reduced mod sectors, and tickets per
         *  sweep (>= 1). */
        std::uint64_t strideStep = 0;
        std::uint64_t perSweep = 1;
        /** @} */
        /**
         * @{ Zipf: precomputed inverse-CDF constants, one std::pow per
         * sample instead of three (see nextSector for the math):
         * scale is (n+1)^(1-alpha) - 1, or ln(n+1) at alpha = 1;
         * invExp is 1/(1-alpha), and 0 flags the alpha = 1 log path.
         */
        double zipfScale = 0;
        double zipfInvExp = 0;
        /** @} */
        /**
         * @{ Global (cross-SM) ticket state. GPU work distribution
         * hands thread blocks out of one queue, so the machine-wide
         * access front of a streaming buffer stays dense no matter how
         * far individual SMs drift — which is what lets a MAT observe
         * a chunk's full coverage within one monitoring phase. Ticket
         * t's sector is t mod sectors (Streaming) or
         * (t mod perSweep * stride + t / perSweep) mod sectors
         * (Strided); `sector` holds the next ticket's, `step` and
         * `sweep` the next ticket's t mod perSweep and
         * (t / perSweep) mod sectors.
         */
        std::uint64_t sector = 0;
        std::uint64_t step = 0;
        std::uint64_t sweep = 0;
        /** @} */
    };

    /** The sector @p stream touches next (draws from @p rng for the
     *  random patterns, takes a global ticket for the others). */
    static std::uint64_t
    nextSector(Stream &stream, Rng &rng)
    {
        switch (stream.pattern) {
          case Pattern::Streaming: {
            // The machine-wide front sweeps the buffer densely and in
            // order.
            const std::uint64_t sector = stream.sector;
            if (++stream.sector == stream.sectors)
                stream.sector = 0;
            return sector;
          }
          case Pattern::Random:
            return rng.below(stream.sectors);
          case Pattern::RandomHot:
            return rng.chance(stream.hotProb) ? rng.below(stream.hot)
                                              : rng.below(stream.sectors);
          case Pattern::Zipf: {
            // Inverse CDF of the truncated continuous power law with
            // density ~ x^-alpha over x in [1, n+1): rank
            //   x = (1 + u * ((n+1)^(1-a) - 1))^(1/(1-a))      (a != 1)
            //   x = e^(u * ln(n+1))                            (a == 1)
            // mapped to sector rank-1. Low sectors form the hot head
            // (rank 1 is the hottest), alpha=0 degenerates to uniform.
            const double u = rng.uniform();
            const double x =
                stream.zipfInvExp == 0
                    ? std::exp(u * stream.zipfScale)
                    : std::pow(1.0 + u * stream.zipfScale,
                               stream.zipfInvExp);
            const auto rank =
                std::max<std::uint64_t>(static_cast<std::uint64_t>(x), 1);
            return std::min<std::uint64_t>(rank - 1, stream.sectors - 1);
          }
          case Pattern::Strided: {
            // A fixed sector stride, wrapping with a +1 phase shift so
            // successive sweeps cover the gaps (column-major matrix
            // walk).
            const std::uint64_t sector = stream.sector;
            if (++stream.step == stream.perSweep) {
                stream.step = 0;
                if (++stream.sweep == stream.sectors)
                    stream.sweep = 0;
                stream.sector = stream.sweep;
            } else {
                stream.sector += stream.strideStep;
                if (stream.sector >= stream.sectors)
                    stream.sector -= stream.sectors;
            }
            return sector;
          }
        }
        return 0;
    }

    std::vector<Stream> streams;
    std::vector<SmState> smStates;
    std::uint64_t iterationsPerSm;
    std::uint32_t computePerMem;
    std::uint32_t numSms;
    std::uint32_t liveSms;
};

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_TRACE_HH
