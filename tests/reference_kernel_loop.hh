/**
 * @file
 * The per-cycle reference kernel loop: the differential-test oracle
 * for GpuSimulator's event-driven kernel engine.
 *
 * Every cycle it retires the loads that completed, then ticks every
 * SM in id order: an SM fetches its next op, burns one compute
 * instruction per cycle, and issues its memory op once the compute is
 * done (stalling one cycle at a time while its load window is full).
 * The event engine claims bit-identical results by construction;
 * tests/test_kernel_loop_diff.cc holds the two equal.
 *
 * It reaches the simulator's private state through a friend
 * declaration in gpu/simulator.hh — a test seam, not a user option.
 */

#ifndef SHMGPU_TESTS_REFERENCE_KERNEL_LOOP_HH
#define SHMGPU_TESTS_REFERENCE_KERNEL_LOOP_HH

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/dary_heap.hh"
#include "common/logging.hh"
#include "gpu/simulator.hh"

namespace shmgpu::test
{

struct ReferenceKernelLoop
{
    /**
     * Run every kernel of @p sim's lone tenant (a workload or a trace)
     * through the per-cycle loop; the counterpart of
     * GpuSimulator::run(). The tenant is dispatched and its kernels
     * started and retired through the scenario engine's own calls, so
     * only the loop between them differs.
     */
    static gpu::ScenarioMetrics
    run(gpu::GpuSimulator &sim)
    {
        using State = gpu::GpuSimulator::TenantContext::State;
        shm_assert(sim.tenants.size() == 1,
                   "the reference loop drives one tenant");
        auto &t = sim.tenants[0];
        sim.contextSwitchTo(0, 0);
        t.state = State::Running;
        sim.startTenantKernel(t, 0);
        while (t.state == State::Running) {
            // The loop ticks every SM itself: drop the events
            // startTenantKernel scheduled for the event engine.
            sim.calendar.clear(sim.currentCycle);
            gpu::GpuSimulator::withSource(t, [&](auto &source) {
                kernel(sim, source, t.kernel.window);
            });
            sim.advanceTenantKernel(t, sim.currentCycle);
        }
        // Every tenant has finished, so run() only closes the run:
        // final stats and metrics.
        return sim.run();
    }

  private:
    using Completion = std::pair<Cycle, SmId>;

    struct State
    {
        std::uint32_t window = 0;
        std::uint32_t drained = 0;
        /** SMs whose trace is exhausted. */
        std::vector<bool> smDrained;
        /** Min-heap of in-flight load completions, (cycle, SM). */
        DaryHeap<Completion> completions;
        /** Compute instructions left before each SM's memory op. */
        std::vector<std::uint32_t> computeLeft;
    };

    template <typename Source>
    static void
    tickSm(gpu::GpuSimulator &sim, State &st, SmId sm, Source &source,
           Cycle now)
    {
        auto &u = sim.sms[sm];
        if (!u.hasOp) {
            if (!source.next(sm, u.op)) {
                st.smDrained[sm] = true;
                ++st.drained;
                return;
            }
            u.hasOp = true;
            st.computeLeft[sm] = u.op.computeInstrs;
            u.pa = sim.map.toLocal(u.op.addr);
        }

        if (st.computeLeft[sm] > 0) {
            --st.computeLeft[sm];
            ++u.instructions;
            return;
        }

        const mem::PartitionAddr pa = u.pa;
        gpu::Partition &part = *sim.partitions[pa.partition];
        const mem::Transaction txn =
            gpu::GpuSimulator::makeTxn(u.op, pa, sm, now);
        if (u.op.type == mem::AccessType::Read) {
            if (u.outstanding >= st.window) {
                ++u.windowStalls;
                return; // retry next cycle
            }
            st.completions.emplace(sim.icnt.serveNow(txn, part), sm);
            ++u.outstanding;
        } else {
            sim.icnt.serveNow(txn, part);
        }
        ++u.instructions;
        u.hasOp = false;
    }

    template <typename Source>
    static void
    kernel(gpu::GpuSimulator &sim, Source &source, std::uint32_t window)
    {
        const std::uint32_t num_sms = sim.gpuConfig.numSms;
        const Cycle max_cycles = sim.gpuConfig.maxCyclesPerKernel;
        State st;
        st.window = window;
        st.computeLeft.assign(num_sms, 0);
        st.smDrained.assign(num_sms, false);

        Cycle &now = sim.currentCycle;
        const Cycle kernel_start = now;
        std::uint64_t outstanding_total = 0;

        while (true) {
            // Retire completed loads first so their SMs can issue.
            while (!st.completions.empty() &&
                   st.completions.top().first <= now) {
                SmId sm = st.completions.top().second;
                st.completions.pop();
                shm_assert(sim.sms[sm].outstanding > 0,
                           "spurious completion");
                --sim.sms[sm].outstanding;
                --outstanding_total;
            }

            for (SmId sm = 0; sm < num_sms; ++sm) {
                if (st.smDrained[sm])
                    continue;
                std::uint32_t prev = sim.sms[sm].outstanding;
                tickSm(sim, st, sm, source, now);
                outstanding_total += sim.sms[sm].outstanding - prev;
            }

            // All SMs drained but loads still in flight: every cycle
            // until the next completion (or the cap) is a no-op.
            if (st.drained == num_sms && outstanding_total > 0 &&
                !st.completions.empty()) {
                Cycle target = std::min(st.completions.top().first,
                                        kernel_start + max_cycles);
                if (target > now + 1)
                    now = target - 1;
            }

            ++now;

            if (st.drained == num_sms && outstanding_total == 0)
                break;
            if (now - kernel_start >= max_cycles) {
                ++sim.statCycleCapHits;
                // Outstanding loads are abandoned.
                for (auto &u : sim.sms)
                    u.outstanding = 0;
                break;
            }
        }
    }
};

/** @p sim's stats dump minus the event engine's own cycles_skipped
 *  line (the per-cycle loop never skips), for comparing the two. */
inline std::string
comparableStats(gpu::GpuSimulator &sim)
{
    std::ostringstream raw;
    sim.statsRoot().dump(raw);
    std::istringstream in(raw.str());
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("cycles_skipped") == std::string::npos)
            out += line + '\n';
    return out;
}

} // namespace shmgpu::test

#endif // SHMGPU_TESTS_REFERENCE_KERNEL_LOOP_HH
