/**
 * @file
 * Configuration-file overrides for the GPU and MEE parameters, so
 * design-space exploration needs no recompiling. The CLI's
 * `--overrides` file takes the GPU and trace keys plus the
 * metadata-cache policy:
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
 * The rest of the MEE structure comes from the CLI's --scheme, so
 * the CLI rejects every other `mee.*` key. Library embedders that
 * build their own MeeParams apply the full set with
 * applyMeeOverrides:
 *
 *   mee.chunk_bytes        = 4096
 *   mee.mats               = 16
 *   mee.mdc_bytes          = 2048
 *   mee.mac_bytes          = 8
 *   mee.bmt_arity          = 16
 *   mee.static_space_hints = true
 *
 * Unknown keys are fatal (Config::assertConsumed); so are unknown
 * policy names, which list the valid set in the error.
 */

#ifndef SHMGPU_CORE_OVERRIDES_HH
#define SHMGPU_CORE_OVERRIDES_HH

#include "common/config.hh"
#include "common/trace.hh"
#include "gpu/params.hh"
#include "mee/engine.hh"

namespace shmgpu::core
{

/** Apply "gpu.*" and "dram.*" keys to @p params. */
void applyGpuOverrides(Config &config, gpu::GpuParams &params);

/** Apply "mee.*" keys to @p params. */
void applyMeeOverrides(Config &config, mee::MeeParams &params);

/**
 * Apply "trace.*" keys to @p params:
 *   trace.classes = sm,txn,engine,l2,mee,detect (or "all")
 */
void applyTraceOverrides(Config &config, trace::TraceParams &params);

/**
 * The CLI's `--overrides` file: the gpu/cache/dram/trace keys and
 * mee.mdc_policy. Every other mee.* key is fatal (the MEE structure
 * comes from the scheme), and so is any unknown key; every error is
 * located at <file>:<line>.
 */
void applyCliOverrides(Config &config, gpu::GpuParams &gpu,
                       trace::TraceParams &trace,
                       mem::PolicyKind &mdc_policy);

/**
 * Apply everything from a file to both parameter sets and fail on
 * unknown keys.
 */
void applyOverridesFile(const std::string &path, gpu::GpuParams &gpu,
                        mee::MeeParams &mee);

} // namespace shmgpu::core

#endif // SHMGPU_CORE_OVERRIDES_HH
