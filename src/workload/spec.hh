/**
 * @file
 * Workload model descriptors.
 *
 * The paper evaluates 16 Rodinia/Parboil/Polybench workloads on
 * GPGPU-Sim. We reproduce their *memory behaviour* with parameterised
 * synthetic models: each workload declares device buffers (size +
 * memory space), host-to-device copies (which seed the read-only
 * detector), and kernels composed of access streams with streaming /
 * random / hot-set patterns plus a compute-to-memory ratio. See
 * DESIGN.md for the substitution rationale.
 */

#ifndef SHMGPU_WORKLOAD_SPEC_HH
#define SHMGPU_WORKLOAD_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace shmgpu::workload
{

/** How a stream walks its buffer. */
enum class Pattern : std::uint8_t
{
    Streaming,  //!< sequential sectors; every block of a chunk touched
    Random,     //!< uniform random sectors over the whole buffer
    RandomHot,  //!< random, biased into a small hot subset (locality)
    Strided,    //!< fixed-stride walk (column-major / interleaved
                //!< structure-of-arrays access; partial chunk coverage)
    Zipf        //!< power-law sector ranks (skew knob: zipfAlpha)
};

/** A device memory buffer. */
struct BufferSpec
{
    std::string name;
    std::uint64_t bytes = 0;
    MemSpace space = MemSpace::Global;
};

/** A host-to-device copy executed before a kernel launch. */
struct HostCopySpec
{
    std::uint32_t buffer = 0; //!< index into WorkloadSpec::buffers
    /**
     * True when the runtime marks the copied region read-only in the
     * command processor (the default for cudaMemcpy H2D at context
     * init, Section IV-B).
     */
    bool marksReadOnly = true;
    /**
     * Explicit programming-model declaration (OpenCL
     * CL_MEM_READ_ONLY): the region may be pinned read-only when the
     * scheme honours hints.
     */
    bool declaredReadOnly = false;
};

/** One access stream within a kernel. */
struct StreamSpec
{
    std::uint32_t buffer = 0;   //!< index into WorkloadSpec::buffers
    Pattern pattern = Pattern::Streaming;
    bool write = false;
    /** Probability an iteration issues this stream's access. */
    double prob = 1.0;
    /** For RandomHot: fraction of the buffer forming the hot set. */
    double hotFraction = 0.05;
    /** For RandomHot: probability an access hits the hot set. */
    double hotProb = 0.8;
    /** For Strided: sectors skipped between consecutive accesses. */
    std::uint64_t strideSectors = 16;
    /**
     * For Zipf: the skew exponent. Sector ranks follow a truncated
     * power law with density ~ rank^-alpha over the buffer: 0 is
     * uniform, ~0.99 matches classic web/key-value skew (cf. YCSB's
     * zipfian constant), and >1 concentrates almost all traffic on a
     * handful of hot sectors. The hot head is the low end of the
     * buffer, like RandomHot's hot set.
     */
    double zipfAlpha = 0.8;
};

/** One kernel launch. */
struct KernelSpec
{
    std::string name;
    /** Iterations executed per SM (each iteration runs every stream). */
    std::uint64_t iterationsPerSm = 4096;
    /** Compute instructions preceding each memory instruction. */
    std::uint32_t computePerMem = 4;
    std::vector<StreamSpec> streams;
    /** Copies performed right before this kernel launches. */
    std::vector<HostCopySpec> preCopies;
    /**
     * Occupancy model: cap on outstanding loads per SM for this
     * kernel (0 = the GPU default). Low-occupancy kernels (small
     * grids, heavy register use) tolerate less memory latency, which
     * is what makes counter-fetch latency hurt them.
     */
    std::uint32_t maxOutstanding = 0;
};

/** A whole workload (application). */
struct WorkloadSpec
{
    std::string name;
    std::string suite;          //!< rodinia / parboil / polybench
    std::vector<BufferSpec> buffers;
    std::vector<KernelSpec> kernels;
    /** Table VII reference bandwidth-utilization band [lo, hi]. */
    double bwUtilLo = 0.0;
    double bwUtilHi = 1.0;
    /** Table VII "Memory Space" column (documentation only). */
    std::string specialSpaces;
    std::uint64_t seed = 1;     //!< RNG seed for random streams
};

/**
 * Validate a workload's internal consistency (buffer references,
 * probabilities, sizes); fatal with a precise message on the first
 * violation, prefixed with @p where when given. The simulator runs it
 * before constructing traces.
 */
void validateSpec(const WorkloadSpec &spec,
                  const std::string &where = "");

/** Byte offset of each buffer in the flat device address space. */
std::vector<Addr> layoutBuffers(const WorkloadSpec &spec,
                                Addr base = 0,
                                Addr alignment = 64 * 1024);

/** Total device footprint of a workload (end of last buffer). */
Addr footprintBytes(const WorkloadSpec &spec);

/**
 * FNV-1a hash over every simulation-relevant field of @p spec (name,
 * suite, buffers, copies, streams, kernel parameters, seed). Two
 * specs with equal hashes simulate identically; two specs that merely
 * share a name do not collide. Used to key baseline caches so that
 * regenerated parameter sweeps reusing a workload name cannot alias.
 */
std::uint64_t contentHash(const WorkloadSpec &spec);

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_SPEC_HH
