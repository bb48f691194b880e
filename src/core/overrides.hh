/**
 * @file
 * Configuration-file overrides for the GPU parameters, so
 * design-space exploration needs no recompiling. An `--overrides`
 * file takes the GPU and trace keys plus the metadata-cache policy:
 *
 *   # turing.cfg
 *   gpu.num_sms            = 30
 *   gpu.sm_window          = 64
 *   gpu.max_cycles         = 100000
 *   cache.policy           = lru   # L2: lru/fifo/random/s3fifo/sieve
 *   dram.bytes_per_cycle   = 16
 *   mee.mdc_policy         = lru   # metadata caches, same value set
 *   trace.classes          = mee,detect
 *
 * The rest of the MEE structure comes from the scheme, so every
 * other `mee.*` key is rejected. Unknown keys are fatal
 * (Config::assertConsumed); so are unknown policy names, which list
 * the valid set in the error, and values the simulator cannot run.
 */

#ifndef SHMGPU_CORE_OVERRIDES_HH
#define SHMGPU_CORE_OVERRIDES_HH

#include "common/config.hh"
#include "common/trace.hh"
#include "gpu/params.hh"
#include "mem/replacement.hh"

namespace shmgpu::core
{

/**
 * The CLI's `--overrides` file: the gpu/cache/dram/trace keys and
 * mee.mdc_policy. Every other mee.* key is fatal (the MEE structure
 * comes from the scheme), and so is any unknown key; every error is
 * located at <file>:<line>.
 */
void applyCliOverrides(Config &config, gpu::GpuParams &gpu,
                       trace::TraceParams &trace,
                       mem::PolicyKind &mdc_policy);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_OVERRIDES_HH
