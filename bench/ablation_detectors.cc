/**
 * @file
 * Ablation: SHM sensitivity to the detector provisioning DESIGN.md
 * calls out — number of MATs, predictor sizes, and chunk size.
 * Run on a representative workload subset (streaming-heavy fdtd2d,
 * mixed kmeans, random-heavy bfs) to keep runtime reasonable.
 */

#include "bench_common.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;

namespace
{

double
normalizedIpc(const bench::BenchOptions &opts, const mee::MeeParams &mp,
              const workload::WorkloadSpec &w, double baseline_ipc)
{
    gpu::GpuSimulator sim(opts.gpuParams(), mp,
                          workload::singleTenantScenario(w));
    return sim.run().total.ipc / baseline_ipc;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseOptions(argc, argv);

    std::vector<const workload::WorkloadSpec *> subset;
    if (!opts.workloadFilter.empty()) {
        subset = opts.workloads();
    } else {
        for (const char *name : {"fdtd2d", "kmeans", "bfs"})
            subset.push_back(&workload::findWorkload(name));
    }

    core::Experiment exp(opts.gpuParams());

    // --- MAT count sweep ---
    {
        TextTable table({"workload", "MATs=2", "MATs=4", "MATs=8",
                         "MATs=16", "unlimited"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            std::vector<std::string> row = {w->name};
            for (std::uint32_t mats : {2u, 4u, 8u, 16u, 0u}) {
                auto mp = schemes::makeMeeParams(schemes::Scheme::Shm);
                mp.streamDetector.trackers = mats;
                row.push_back(TextTable::num(
                    normalizedIpc(opts, mp, *w, base), 3));
            }
            table.addRow(row);
        }
        bench::emit(opts,
                    "Ablation — memory-access-tracker count "
                    "(normalized IPC, SHM)",
                    table);
    }

    // --- Chunk size sweep ---
    {
        TextTable table({"workload", "1KB", "2KB", "4KB", "8KB"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            std::vector<std::string> row = {w->name};
            for (std::uint64_t chunk :
                 {1024ull, 2048ull, 4096ull, 8192ull}) {
                auto mp = schemes::makeMeeParams(schemes::Scheme::Shm);
                mp.streamDetector.chunkBytes = chunk;
                row.push_back(TextTable::num(
                    normalizedIpc(opts, mp, *w, base), 3));
            }
            table.addRow(row);
        }
        bench::emit(opts,
                    "Ablation — coarse-MAC chunk size (normalized IPC, "
                    "SHM)",
                    table);
    }

    // --- Predictor size sweep ---
    {
        TextTable table({"workload", "RO=256/STR=512", "RO=1K/STR=2K",
                         "RO=4K/STR=8K"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            std::vector<std::string> row = {w->name};
            for (std::uint32_t scale : {256u, 1024u, 4096u}) {
                auto mp = schemes::makeMeeParams(schemes::Scheme::Shm);
                mp.roDetector.entries = scale;
                mp.streamDetector.entries = scale * 2;
                row.push_back(TextTable::num(
                    normalizedIpc(opts, mp, *w, base), 3));
            }
            table.addRow(row);
        }
        bench::emit(opts,
                    "Ablation — predictor bit-vector sizes "
                    "(normalized IPC, SHM)",
                    table);
    }

    return 0;
}
