/**
 * @file
 * Reproduces Fig. 5: the fraction of off-chip memory accesses (L2
 * misses and write-backs) that touch streaming-accessed chunks and
 * read-only regions, per workload — the opportunity SHM exploits.
 *
 * Paper shape: most workloads are heavily streaming; fdtd2d ~99.9%
 * read-only and ~99.4% streaming; bfs / mri-gridding mostly random
 * and write-heavy.
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

    TextTable table(
        {"workload", "streaming", "read-only", "accesses"});

    for (const auto *w : opts.workloads()) {
        gpu::GpuParams gp = opts.gpuParams();
        detect::AccessProfile profile(gp.numPartitions,
                                      gp.protectedBytesPerPartition);
        gpu::GpuSimulator sim(
            gp, schemes::makeMeeParams(schemes::Scheme::Baseline),
            workload::singleTenantScenario(*w));
        sim.collectProfile(&profile);
        sim.run();

        auto ratios = profile.accessRatios();
        table.addRow({w->name, TextTable::pct(ratios.streaming),
                      TextTable::pct(ratios.readOnly),
                      std::to_string(ratios.totalAccesses)});
    }

    bench::emit(opts,
                "Fig. 5 — Share of off-chip accesses touching "
                "streaming / read-only data",
                table);
    return 0;
}
