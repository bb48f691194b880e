/**
 * @file
 * Workload-model calibration report: per workload, the no-security
 * baseline's achieved bandwidth utilization against the Table VII
 * band, plus IPC, L2 miss rate and the Fig.-5 ratios. Used to keep
 * the synthetic models inside the envelope the paper documents.
 */

#include "bench_common.hh"
#include "detect/oracle.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);

    TextTable table({"workload", "util", "target-band", "in-band",
                     "ipc", "l2miss", "stream%", "ro%"});

    for (const auto *w : opts.workloads()) {
        gpu::GpuParams gp = opts.gpuParams();
        detect::AccessProfile profile(gp.numPartitions,
                                      gp.protectedBytesPerPartition);
        gpu::GpuSimulator sim(
            gp, schemes::makeMeeParams(schemes::Scheme::Baseline),
            workload::singleTenantScenario(*w));
        sim.collectProfile(&profile);
        gpu::RunMetrics m = sim.run().total;
        auto ratios = profile.accessRatios();

        bool in_band = m.bandwidthUtilization >= w->bwUtilLo * 0.8 &&
                       m.bandwidthUtilization <= w->bwUtilHi * 1.2 + 0.02;
        table.addRow({w->name, TextTable::pct(m.bandwidthUtilization),
                      TextTable::pct(w->bwUtilLo, 0) + "-" +
                          TextTable::pct(w->bwUtilHi, 0),
                      in_band ? "yes" : "NO",
                      TextTable::num(m.ipc, 1),
                      TextTable::pct(m.l2MissRate),
                      TextTable::pct(ratios.streaming),
                      TextTable::pct(ratios.readOnly)});
    }

    bench::emit(opts,
                "Calibration — baseline bandwidth utilization vs. "
                "Table VII",
                table);
    return 0;
}
