/**
 * @file
 * Offline trace analysis: record a workload's access trace, then
 * study it without re-simulating — per-kernel streaming/read-only
 * mixes (the Fig. 5 methodology) and what the SHM detectors would
 * predict, all through the public trace and oracle APIs.
 */

#include <cstdio>

#include "detect/oracle.hh"
#include "gpu/params.hh"
#include "mem/addr_map.hh"
#include "workload/benchmarks.hh"
#include "workload/trace_file.hh"

using namespace shmgpu;

int
main(int argc, char **argv)
{
    const char *workload_name = argc > 1 ? argv[1] : "kmeans";
    const workload::WorkloadSpec &w =
        workload::findWorkload(workload_name);

    std::printf("recording '%s' (%zu kernels) ...\n", w.name.c_str(),
                w.kernels.size());
    workload::Trace trace = workload::generateTrace(w, 30);
    std::printf("%llu ops total\n\n",
                static_cast<unsigned long long>(trace.totalOps()));

    // Feed the recorded physical accesses through the partition map
    // into a ground-truth profile, per kernel.
    const gpu::GpuParams gp;
    mem::AddressMap map(gp.numPartitions, gp.interleaveBytes);
    for (std::size_t k = 0; k < trace.kernels.size(); ++k) {
        detect::AccessProfile profile(gp.numPartitions,
                                      gp.protectedBytesPerPartition);
        Cycle now = 0;
        for (const auto &rec : trace.kernels[k].records) {
            mem::PartitionAddr pa = map.toLocal(rec.op.addr);
            profile.recordAccess(pa.partition, pa.local,
                                 rec.op.type == mem::AccessType::Write,
                                 now++);
        }
        profile.finalize();

        auto ratios = profile.accessRatios();
        std::printf("kernel %zu (%s): %llu ops, %.1f%% streaming, "
                    "%.1f%% read-only regions\n",
                    k, w.kernels[k].name.c_str(),
                    static_cast<unsigned long long>(
                        trace.kernels[k].records.size()),
                    100.0 * ratios.streaming, 100.0 * ratios.readOnly);

        // What would the hardware predictors conclude? Count distinct
        // streaming vs. random chunks the oracle observed.
        std::uint64_t stream_chunks = 0, random_chunks = 0;
        for (PartitionId p = 0; p < gp.numPartitions; ++p) {
            profile.forEachChunk(p, [&](std::uint64_t, bool s) {
                (s ? stream_chunks : random_chunks)++;
            });
        }
        std::printf("           chunks: %llu streaming, %llu random "
                    "-> %s-granularity MACs dominate\n",
                    static_cast<unsigned long long>(stream_chunks),
                    static_cast<unsigned long long>(random_chunks),
                    stream_chunks >= random_chunks ? "chunk" : "block");
    }

    std::printf("\n(compare with `figures --figure fig05_access_ratios`, "
                "which derives the same mix from a live simulation)\n");
    return 0;
}
