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

#include <cstdint>
#include <vector>

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

/** Generates the access stream of one kernel for every SM. */
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
    bool next(SmId sm, TraceOp &op);

    /** True once every SM has drained. */
    bool done() const;

  private:
    struct SmState
    {
        std::uint64_t iteration = 0;
        std::uint32_t streamCursor = 0; //!< next stream in the iteration
        Rng rng{1};
        bool finished = false;
    };

    Addr streamAddr(SmId sm, std::uint32_t stream_idx);

    /**
     * Precomputed inverse-CDF constants for Zipf streams (identity
     * values for other patterns): one std::pow per sample instead of
     * three. See streamAddr for the sampling math.
     */
    struct ZipfConst
    {
        double scale = 0;  //!< (n+1)^(1-alpha) - 1, or ln(n+1) at a=1
        double invExp = 0; //!< 1/(1-alpha); 0 flags the a=1 log path
    };

    const WorkloadSpec &spec;
    const KernelSpec &kernelSpec;
    std::vector<Addr> bases;
    std::uint32_t numSms;
    std::vector<SmState> smStates;
    /**
     * Global (cross-SM) sector ticket per stream. GPU work
     * distribution hands thread blocks out of one queue, so the
     * machine-wide access front of a streaming buffer stays dense no
     * matter how far individual SMs drift — which is what lets a MAT
     * observe a chunk's full coverage within one monitoring phase.
     */
    std::vector<std::uint64_t> streamTickets;
    std::vector<ZipfConst> zipfConsts; //!< per stream, Zipf only
    std::uint32_t liveSms;
};

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_TRACE_HH
