/**
 * @file
 * Quickstart: simulate one workload under the paper's SHM design and
 * print the headline numbers.
 *
 * Build tree usage:
 *   ./build/examples/quickstart [workload] [scheme]
 * e.g.
 *   ./build/examples/quickstart lbm SHM
 */

#include <cstdio>
#include <string>

#include "core/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace shmgpu;

    std::string workload_name = argc > 1 ? argv[1] : "fdtd2d";
    std::string scheme_name = argc > 2 ? argv[2] : "SHM";

    const workload::WorkloadSpec &w =
        workload::findWorkload(workload_name);
    schemes::Scheme scheme = schemes::schemeFromName(scheme_name);

    // An Experiment owns the GPU configuration (Table V defaults: 30
    // SMs, 12 GDDR partitions, 3 MB L2) and caches the no-security
    // baseline per workload.
    core::Experiment experiment;
    core::ExperimentResult r = experiment.run(scheme, w);

    std::printf("workload           : %s (%s)\n", w.name.c_str(),
                w.suite.c_str());
    std::printf("scheme             : %s\n", r.scheme.c_str());
    std::printf("baseline IPC       : %.2f\n", r.baseline.ipc);
    std::printf("secure IPC         : %.2f\n", r.metrics.ipc);
    std::printf("normalized IPC     : %.3f  (%.2f%% overhead)\n",
                r.normalizedIpc, 100.0 * r.overhead());
    std::printf("bandwidth util     : %.1f%%\n",
                100.0 * r.metrics.bandwidthUtilization);
    std::printf("metadata overhead  : %.2f%% of data bytes\n",
                100.0 * r.metrics.metadataOverhead());
    std::printf("  counters         : %10llu B\n",
                static_cast<unsigned long long>(r.metrics.bytesCounter));
    std::printf("  MACs             : %10llu B\n",
                static_cast<unsigned long long>(r.metrics.bytesMac));
    std::printf("  BMT              : %10llu B\n",
                static_cast<unsigned long long>(r.metrics.bytesBmt));
    std::printf("  mispred refetch  : %10llu B\n",
                static_cast<unsigned long long>(r.metrics.bytesExtra));
    std::printf("shared-ctr reads   : %llu\n",
                static_cast<unsigned long long>(r.metrics.sharedCtrReads));
    std::printf("chunk-MAC accesses : %llu (vs %llu block-MAC)\n",
                static_cast<unsigned long long>(r.metrics.chunkMacAccesses),
                static_cast<unsigned long long>(r.metrics.blockMacAccesses));
    std::printf("energy/instr       : %.3fx baseline\n",
                r.normalizedEnergyPerInstr);
    return 0;
}
