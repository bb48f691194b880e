/**
 * @file
 * The sixteen Table-VII workload models (Rodinia / Parboil /
 * Polybench) plus micro-workloads for tests.
 *
 * Each model is a synthetic reproduction of the benchmark's memory
 * behaviour: buffer footprints and spaces, host-copy initialization,
 * per-kernel stream patterns (streaming / random / hot-set), write
 * intensity and compute-to-memory ratio, tuned toward the bandwidth-
 * utilization bands and constant/texture usage reported in Table VII
 * and the streaming/read-only ratios of Fig. 5.
 */

#ifndef SHMGPU_WORKLOAD_BENCHMARKS_HH
#define SHMGPU_WORKLOAD_BENCHMARKS_HH

#include <vector>

#include "workload/spec.hh"

namespace shmgpu::workload
{

/** All sixteen paper workloads, in Table VII order. */
const std::vector<WorkloadSpec> &allWorkloads();

/** Look up a paper workload by name; fatal on unknown name, prefixed
 *  with @p where when given. */
const WorkloadSpec &findWorkload(const std::string &name,
                                 const std::string &where = "");

/** @{ Small deterministic workloads for unit/integration tests. */
WorkloadSpec makeStreamingMicro(std::uint64_t buffer_bytes = 1 << 20,
                                std::uint64_t iterations = 2048);
WorkloadSpec makeRandomMicro(std::uint64_t buffer_bytes = 1 << 20,
                             std::uint64_t iterations = 2048);
WorkloadSpec makeMixedMicro();
WorkloadSpec makeMultiKernelMicro();
/** @} */

/**
 * Zipf-parameterized synthetic workload (cf. lsc's zipf_test.cfg): a
 * host-initialized lookup table read with power-law sector skew
 * @p alpha over a total device footprint of @p footprint_bytes, plus
 * a small scattered output stream. (footprint x alpha) make natural
 * sweep axes — `shmgpu sweep --zipf` builds thousand-cell grids from
 * them. Deterministic for a given (footprint, alpha, seed) triple;
 * the name encodes footprint and alpha, and workload::contentHash
 * separates specs that merely share a name.
 */
WorkloadSpec makeZipfSpec(std::uint64_t footprint_bytes, double alpha,
                          std::uint64_t seed = 11,
                          std::uint64_t iterations = 2048);

} // namespace shmgpu::workload

#endif // SHMGPU_WORKLOAD_BENCHMARKS_HH
