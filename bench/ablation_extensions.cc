/**
 * @file
 * Ablation of the extension features beyond the paper's evaluated
 * design point:
 *
 *  - static space hints (Table I: constant/texture are architecturally
 *    read-only; the paper's Section IV-B notes the option but its
 *    evaluation relies purely on dynamic detection);
 *  - programming-model read-only declarations (OpenCL-style buffers,
 *    also forgone in the paper's evaluation);
 *  - BMT arity, demonstrating the paper's claim that the proposed
 *    schemes are independent of the integrity-tree implementation.
 */

#include "bench_common.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"

using namespace shmgpu;

namespace
{

double
normIpc(const bench::BenchOptions &opts, const mee::MeeParams &mp,
        const workload::WorkloadSpec &w, double base)
{
    gpu::GpuSimulator sim(opts.gpuParams(), mp,
                          workload::singleTenantScenario(w));
    return sim.run().total.ipc / base;
}

workload::WorkloadSpec
withDeclaredInputs(const workload::WorkloadSpec &w)
{
    workload::WorkloadSpec out = w;
    for (auto &k : out.kernels)
        for (auto &c : k.preCopies)
            c.declaredReadOnly = true;
    return out;
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
        for (const char *name : {"kmeans", "sad", "b+tree", "fdtd2d"})
            subset.push_back(&workload::findWorkload(name));
    }

    core::Experiment exp(opts.gpuParams());

    // --- hint sources ---
    {
        TextTable table({"workload", "SHM", "+static-space",
                         "+declared-RO", "+both"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            auto declared = withDeclaredInputs(*w);

            auto mk = [&](bool spaces, bool decls) {
                auto mp = schemes::makeMeeParams(schemes::Scheme::Shm);
                mp.staticSpaceHints = spaces;
                mp.programmingModelHints = decls;
                return normIpc(opts, mp,
                               decls ? declared : *w, base);
            };
            table.addRow({w->name,
                          TextTable::num(mk(false, false), 3),
                          TextTable::num(mk(true, false), 3),
                          TextTable::num(mk(false, true), 3),
                          TextTable::num(mk(true, true), 3)});
        }
        bench::emit(opts,
                    "Ablation — read-only hint sources "
                    "(normalized IPC, SHM)",
                    table);
    }

    // --- BMT arity ---
    {
        TextTable table({"workload", "arity=8", "arity=16", "arity=32"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            std::vector<std::string> row = {w->name};
            for (std::uint32_t arity : {8u, 16u, 32u}) {
                auto mp = schemes::makeMeeParams(schemes::Scheme::Shm);
                mp.bmtArity = arity;
                row.push_back(TextTable::num(
                    normIpc(opts, mp, *w, base), 3));
            }
            table.addRow(row);
        }
        bench::emit(opts,
                    "Ablation — integrity-tree arity (normalized IPC, "
                    "SHM; scheme is tree-independent per Section II-B)",
                    table);
    }

    // --- MAC width (PSSM's 4 B truncation vs. the paper's 8 B) ---
    {
        TextTable table({"workload", "PSSM 8B MAC", "PSSM 4B MAC",
                         "SHM 8B MAC"});
        for (const auto *w : subset) {
            double base = exp.baselineFor(*w).ipc;
            auto p8 = schemes::makeMeeParams(schemes::Scheme::Pssm);
            auto p4 = p8;
            p4.macBytes = 4;
            auto s8 = schemes::makeMeeParams(schemes::Scheme::Shm);
            table.addRow({w->name,
                          TextTable::num(normIpc(opts, p8, *w, base), 3),
                          TextTable::num(normIpc(opts, p4, *w, base), 3),
                          TextTable::num(normIpc(opts, s8, *w, base),
                                         3)});
        }
        bench::emit(
            opts,
            "Ablation — stored MAC width. 4 B MACs fall below the "
            "birthday bound for 4 GB (Section III-C: need >= 50 bits); "
            "SHM keeps 8 B MACs and wins on bandwidth instead",
            table);
    }
    return 0;
}
