/**
 * @file
 * Per-layer tallies shared by the two simulator workloads: exact
 * counts read from gpu::RunMetrics, host time per simulated cycle by
 * scheme, and the program's own profile phases and counters.
 */

#ifndef PERFBENCH_SIM_LAYERS_HH
#define PERFBENCH_SIM_LAYERS_HH

#include <map>
#include <string>

#include "gpu/metrics.hh"

namespace perfbench
{

class SimLayers
{
  public:
    /**
     * Count one simulated run of @p scheme that took @p host_seconds.
     * Runs of a security scheme also feed the mee.* and mem.* counts.
     */
    void add(const std::string &scheme,
             const shmgpu::gpu::RunMetrics &metrics, double host_seconds);

    /** Write the gpu.*, mee.* and mem.* values into @p values. */
    void fill(std::map<std::string, double> &values) const;

  private:
    struct SchemeTotals
    {
        double cycles = 0;
        double instructions = 0;
        double hostSeconds = 0;
        double l2MissRateSum = 0;
        double bwUtilSum = 0;
        double runs = 0;
        double bytes[5] = {0, 0, 0, 0, 0};
    };
    std::map<std::string, SchemeTotals> schemes;
    std::map<std::string, double> meeCounts;
};

/**
 * Write gpu.init_s, gpu.kernel_loop_s, gpu.cycles_skipped_frac and
 * mee.meta_path_s from the profile accumulators (profiling must have
 * been on for the pass being read, serially).
 */
void fillProfile(std::map<std::string, double> &values);

} // namespace perfbench

#endif // PERFBENCH_SIM_LAYERS_HH
