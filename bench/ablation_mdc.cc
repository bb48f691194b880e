/**
 * @file
 * Ablation: metadata-cache (MDC) capacity. The paper fixes 2 KB per
 * cache per partition (Table VI); this sweep shows how PSSM and SHM
 * respond to 1-8 KB, separating "SHM wins because it needs less
 * metadata" from "SHM wins because its metadata caches better".
 */

#include "bench_common.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);

    std::vector<const workload::WorkloadSpec *> subset;
    if (!opts.workloadFilter.empty()) {
        subset = opts.workloads();
    } else {
        for (const char *name : {"lbm", "srad_v2", "mri-gridding"})
            subset.push_back(&workload::findWorkload(name));
    }

    core::Experiment exp(opts.gpuParams());
    TextTable table({"workload", "scheme", "1KB", "2KB", "4KB", "8KB"});

    for (const auto *w : subset) {
        double base = exp.baselineFor(*w).ipc;
        for (auto scheme : {schemes::Scheme::Pssm, schemes::Scheme::Shm}) {
            std::vector<std::string> row = {w->name,
                                            schemes::schemeName(scheme)};
            for (std::uint64_t size :
                 {1024ull, 2048ull, 4096ull, 8192ull}) {
                auto mp = schemes::makeMeeParams(scheme);
                mp.counterCache.sizeBytes = size;
                mp.macCache.sizeBytes = size;
                mp.bmtCache.sizeBytes = size;
                gpu::GpuSimulator sim(opts.gpuParams(), mp,
                                      workload::singleTenantScenario(*w));
                row.push_back(
                    TextTable::num(sim.run().total.ipc / base, 3));
            }
            table.addRow(row);
        }
    }

    bench::emit(opts,
                "Ablation — metadata cache capacity per partition "
                "(normalized IPC)",
                table);
    return 0;
}
