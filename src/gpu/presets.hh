/**
 * @file
 * Named GPU configurations.
 *
 * The default-constructed GpuParams is the paper's Table V machine
 * (Turing-like). These helpers provide documented variants for
 * scaling studies and fast tests.
 */

#ifndef SHMGPU_GPU_PRESETS_HH
#define SHMGPU_GPU_PRESETS_HH

#include <string>
#include <vector>

#include "gpu/params.hh"

namespace shmgpu::gpu
{

/** The paper's baseline (Table V): 30 SMs, 12 partitions, 3 MB L2. */
GpuParams turingConfig();

/**
 * A larger part (A100-flavoured): 2x SMs and L2, 33% more
 * bandwidth-per-partition — for studying how the SHM savings scale
 * with compute/bandwidth ratio.
 */
GpuParams bigConfig();

/** A deliberately tiny machine for fast unit/integration tests. */
GpuParams testConfig();

/** Look up a preset by name (one of presetNames()); fatal else,
 *  naming the valid set. */
GpuParams presetByName(const std::string &name);

/** Names accepted by presetByName, in table order. */
const std::vector<std::string> &presetNames();

/**
 * Switch @p params to replacement policy @p policy (currently the L2
 * banks; the MEE metadata caches take the same kind via
 * mee::MeeParams::mdcPolicy). Returns @p params for chaining, e.g.
 * `applyCachePolicy(testConfig(), mem::PolicyKind::Sieve)`.
 */
GpuParams &applyCachePolicy(GpuParams &params, mem::PolicyKind policy);

} // namespace shmgpu::gpu

#endif // SHMGPU_GPU_PRESETS_HH
