/**
 * @file
 * Differential fuzzing of the adaptive protection scheme
 * (Scheme::ShmAdaptive): mispredicted demotions must never break
 * integrity, and the adaptive timing engine must stay bit-identical
 * to the per-cycle kernel oracle.
 *
 * Three properties, each fuzzed over random workloads, controller
 * threshold mixes and seeds:
 *
 *  1. Oracle replay: a SecureMemoryContext driven by a random
 *     operation stream while a random controller demotes/promotes
 *     regions records every transition with its opSeq(). A second
 *     context replaying the same stream and applying the recorded
 *     schedule at the recorded positions must land on byte-identical
 *     functional state — same ciphertext, same MACs, same region
 *     generations, same transition log.
 *
 *  2. Tamper/replay after demotion: pre-transition snapshots replayed
 *     into a demoted region, bit flips in a demoted region, and stale
 *     snapshots replayed across a write-triggered promotion must all
 *     be detected (MacMismatch/BmtMismatch) — demoted modes skip the
 *     freshness walk, so this is the proof the generation bump leaves
 *     exactly one authenticatable version.
 *
 *  3. Kernel-engine equivalence: SHM_adaptive runs (curated micros and
 *     random specs, several epochs and threshold settings) must
 *     produce bit-identical metrics and stats trees under the event
 *     engine and the per-cycle oracle (tests/reference_kernel_loop.hh),
 *     so the controller's epoch boundaries see the same `now`s.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "reference_kernel_loop.hh"
#include "mee/functional.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/spec.hh"

using namespace shmgpu;
using namespace shmgpu::mee;
using shmgpu::crypto::DataBlock;

namespace
{

constexpr std::uint64_t kSpace = 1 << 20; // 8192 blocks
constexpr int kBlocks = kSpace / 128;
constexpr std::uint64_t kRegion = 16 * 1024; // detector default

meta::LayoutParams
layoutParams()
{
    meta::LayoutParams p;
    p.dataBytes = kSpace;
    return p;
}

DataBlock
randomBlock(Rng &rng)
{
    DataBlock b;
    for (auto &byte : b)
        byte = static_cast<std::uint8_t>(rng.next());
    return b;
}

/** One recorded public operation, for oracle replay. */
struct Op
{
    enum Kind : std::uint8_t
    {
        HostWrite,
        HostWriteNoRo,
        HostWriteRange,
        DeviceWrite,
        DeviceRead,
        RoReset
    };
    Kind kind = DeviceRead;
    LocalAddr addr = 0;
    std::vector<DataBlock> data; // writes: payload (1 block or range)
};

/** Issue @p op against @p ctx (the single point both the primary and
 *  the oracle go through, so the streams cannot diverge). */
void
issue(SecureMemoryContext &ctx, const Op &op)
{
    switch (op.kind) {
      case Op::HostWrite:
        ctx.hostWrite(op.addr, op.data[0], /*mark_read_only=*/true);
        break;
      case Op::HostWriteNoRo:
        ctx.hostWrite(op.addr, op.data[0], /*mark_read_only=*/false);
        break;
      case Op::HostWriteRange:
        ctx.hostWriteRange(op.addr, op.data.data(),
                           op.data.size() * 128,
                           /*mark_read_only=*/true);
        break;
      case Op::DeviceWrite:
        ctx.deviceWrite(op.addr, op.data[0]);
        break;
      case Op::DeviceRead:
        ctx.deviceRead(op.addr);
        break;
      case Op::RoReset:
        ctx.inputReadOnlyReset(op.addr, kRegion, /*reencrypt=*/true);
        break;
    }
}

/** Controller demotion mixes standing in for threshold settings: the
 *  functional model takes transitions from outside (the engine owns
 *  the thresholds), so the fuzz varies how eagerly and into which
 *  modes the driver demotes. */
struct ControllerMix
{
    double demoteChance;   // per-step demotion probability
    double roElideWeight;  // vs CommonCtr / MacOnly
    double macOnlyWeight;
};

constexpr ControllerMix kMixes[] = {
    {0.05, 0.8, 0.1},  // conservative, mostly RoElide
    {0.25, 0.4, 0.3},  // eager, mixed targets
    {0.50, 0.1, 0.8},  // pathological: mostly MacOnly, lots of churn
};

AdaptMode
pickDemotion(Rng &rng, const ControllerMix &mix)
{
    double r = rng.uniform();
    if (r < mix.roElideWeight)
        return AdaptMode::RoElide;
    if (r < mix.roElideWeight + mix.macOnlyWeight)
        return AdaptMode::MacOnly;
    return AdaptMode::CommonCtr;
}

} // namespace

class AdaptiveDiff : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AdaptiveDiff, OracleReplayReproducesAdaptiveState)
{
    for (const ControllerMix &mix : kMixes) {
        Rng rng(GetParam() * 31 + static_cast<std::uint64_t>(
                                      mix.demoteChance * 100));
        SecureMemoryContext primary(layoutParams(), GetParam());
        std::map<LocalAddr, DataBlock> reference;
        std::vector<Op> ops;

        for (int step = 0; step < 1200; ++step) {
            // The random controller: demote a region between ops the
            // way the engine does at epoch boundaries. Transitions are
            // recorded by the context itself with the current opSeq().
            if (rng.chance(mix.demoteChance)) {
                LocalAddr region =
                    rng.below(kSpace / kRegion) * kRegion;
                if (primary.regionMode(region) == AdaptMode::Full)
                    primary.applyModeTransition(region,
                                                pickDemotion(rng, mix));
            }

            Op op;
            op.addr = rng.below(kBlocks) * 128;
            switch (rng.below(10)) {
              case 0:
              case 1:
                op.kind = Op::HostWrite;
                op.data.push_back(randomBlock(rng));
                reference[op.addr] = op.data[0];
                break;
              case 2:
                op.kind = Op::HostWriteNoRo;
                op.data.push_back(randomBlock(rng));
                reference[op.addr] = op.data[0];
                break;
              case 3: {
                op.kind = Op::HostWriteRange;
                op.addr = op.addr / kRegion * kRegion;
                std::size_t n = 4 + rng.below(8);
                for (std::size_t i = 0; i < n; ++i) {
                    op.data.push_back(randomBlock(rng));
                    reference[op.addr + i * 128] = op.data[i];
                }
                break;
              }
              case 4:
              case 5:
              case 6:
                op.kind = Op::DeviceWrite;
                op.data.push_back(randomBlock(rng));
                reference[op.addr] = op.data[0];
                break;
              case 7:
                op.kind = Op::RoReset;
                op.addr = op.addr / kRegion * kRegion;
                break;
              default:
                op.kind = Op::DeviceRead;
                if (!reference.empty())
                    op.addr = reference.lower_bound(op.addr) !=
                                      reference.end()
                                  ? reference.lower_bound(op.addr)->first
                                  : reference.begin()->first;
                break;
            }
            issue(primary, op);
            ops.push_back(std::move(op));
        }

        // Oracle: same stream, same tenant/seed, transitions applied
        // from the recorded schedule at the recorded positions.
        // Auto-promotions are pre-applied the same way — the original
        // write then sees Full and the replayed applyModeTransition
        // call inside the op becomes a no-op, so the logs line up.
        const std::vector<AdaptTransition> schedule =
            primary.transitionLog();
        SecureMemoryContext oracle(layoutParams(), GetParam());
        std::size_t next = 0;
        for (const Op &op : ops) {
            while (next < schedule.size() &&
                   schedule[next].seq == oracle.opSeq()) {
                oracle.applyModeTransition(schedule[next].regionBase,
                                           schedule[next].to);
                ++next;
            }
            issue(oracle, op);
        }
        ASSERT_EQ(next, schedule.size()) << "unapplied transitions";

        // The replayed log must match the recorded one exactly.
        const auto &olog = oracle.transitionLog();
        ASSERT_EQ(olog.size(), schedule.size());
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            EXPECT_EQ(olog[i].seq, schedule[i].seq) << "entry " << i;
            EXPECT_EQ(olog[i].regionBase, schedule[i].regionBase)
                << "entry " << i;
            EXPECT_EQ(olog[i].from, schedule[i].from) << "entry " << i;
            EXPECT_EQ(olog[i].to, schedule[i].to) << "entry " << i;
        }

        // Byte-identical off-chip state: ciphertext, MACs, region
        // generation and mode agree block for block, and both sides
        // still decrypt every reference block exactly.
        EXPECT_EQ(oracle.sharedCounter().value(),
                  primary.sharedCounter().value());
        for (const auto &[addr, plain] : reference) {
            EXPECT_EQ(oracle.memory().readBlock(addr),
                      primary.memory().readBlock(addr))
                << "ciphertext differs at " << addr;
            EXPECT_EQ(oracle.macStore().blockMac(addr),
                      primary.macStore().blockMac(addr))
                << "block MAC differs at " << addr;
            EXPECT_EQ(oracle.regionGeneration(addr),
                      primary.regionGeneration(addr))
                << "generation differs at " << addr;
            EXPECT_EQ(oracle.regionMode(addr), primary.regionMode(addr))
                << "mode differs at " << addr;

            auto p = primary.deviceRead(addr);
            auto o = oracle.deviceRead(addr);
            ASSERT_EQ(p.status, VerifyStatus::Ok) << "addr " << addr;
            ASSERT_EQ(o.status, VerifyStatus::Ok) << "addr " << addr;
            EXPECT_EQ(p.data, plain) << "addr " << addr;
            EXPECT_EQ(o.data, plain) << "addr " << addr;
        }
    }
}

TEST_P(AdaptiveDiff, TamperAfterDemotionAlwaysDetected)
{
    Rng rng(GetParam() ^ 0xADA9F00Dull);
    SecureMemoryContext ctx(layoutParams(), GetParam());

    // Populate every region so each trial has a victim to demote.
    std::map<LocalAddr, DataBlock> reference;
    for (int i = 0; i < 512; ++i) {
        LocalAddr addr = rng.below(kBlocks) * 128;
        DataBlock b = randomBlock(rng);
        ctx.hostWrite(addr, b, rng.chance(0.5));
        reference[addr] = b;
    }

    int detected = 0, attacks = 0;
    std::vector<LocalAddr> addrs;
    for (const auto &[addr, plain] : reference)
        addrs.push_back(addr);

    for (int trial = 0; trial < 96; ++trial) {
        LocalAddr victim = addrs[rng.below(addrs.size())];
        // Heal: promote to Full and rewrite a known value so each
        // trial starts from authenticatable state.
        if (ctx.regionMode(victim) != AdaptMode::Full)
            ctx.applyModeTransition(victim, AdaptMode::Full);
        DataBlock fresh = randomBlock(rng);
        ctx.deviceWrite(victim, fresh);
        reference[victim] = fresh;
        ASSERT_EQ(ctx.deviceRead(victim).status, VerifyStatus::Ok);

        AdaptMode target =
            pickDemotion(rng, kMixes[trial % 3 == 0 ? 2 : 1]);
        ++attacks;
        switch (rng.below(3)) {
          case 0: {
            // Pre-demotion snapshot replayed after the demotion: the
            // generation bump must invalidate it even though the
            // demoted mode no longer walks the BMT.
            auto snap = ctx.snapshotBlock(victim);
            ctx.applyModeTransition(victim, target);
            ctx.replayBlock(snap);
            break;
          }
          case 1: {
            // Bit flip inside the demoted region (MAC-only integrity
            // is the last line of defense there).
            ctx.applyModeTransition(victim, target);
            ctx.memory().corruptByte(victim + rng.below(128),
                                     static_cast<std::uint8_t>(
                                         1u << rng.below(8)));
            break;
          }
          case 2: {
            // Snapshot while demoted, then a device write promotes
            // the region (misprediction path) — replaying the stale
            // demoted-era version must fail under the promoted
            // generation.
            ctx.applyModeTransition(victim, target);
            auto snap = ctx.snapshotBlock(victim);
            DataBlock next_val = randomBlock(rng);
            ctx.deviceWrite(victim, next_val); // auto-promotes
            reference[victim] = next_val;
            ASSERT_EQ(ctx.regionMode(victim), AdaptMode::Full)
                << "write into demoted region must promote";
            ctx.replayBlock(snap);
            break;
          }
        }

        auto r = ctx.deviceRead(victim);
        if (r.status != VerifyStatus::Ok) {
            ++detected;
        } else {
            // Never silent corruption: an undetected read must carry
            // the true current plaintext (impossible for these
            // attacks, but this is the invariant being fuzzed).
            EXPECT_EQ(r.data, reference[victim])
                << "trial " << trial << ": tampered read passed "
                << "verification with wrong data";
        }
    }
    EXPECT_EQ(detected, attacks)
        << "an attack against a demoted region slipped through";
}

namespace
{

/** Kernel-loop diff harness specialized for the adaptive scheme:
 *  requires the full stats tree (which includes every adapt_* stat and
 *  the mode-residency histogram, minus the event engine's own
 *  cycles_skipped) plus the adaptive tallies to match. */
void
expectAdaptiveIdentical(const gpu::GpuParams &gp,
                        const mee::MeeParams &mp,
                        const workload::WorkloadSpec &w,
                        const std::string &what)
{
    SCOPED_TRACE(what);
    auto run = [&](bool reference_loop) {
        gpu::GpuSimulator sim(gp, mp, w);
        auto metrics = reference_loop
                           ? test::ReferenceKernelLoop::run(sim)
                           : sim.run();
        return std::pair<gpu::RunMetrics, std::string>(
            metrics, test::comparableStats(sim));
    };
    auto [event_metrics, event_stats] = run(false);
    auto [metrics, stats] = run(true);
    EXPECT_EQ(metrics.cycles, event_metrics.cycles);
    EXPECT_EQ(metrics.ipc, event_metrics.ipc);
    EXPECT_EQ(metrics.bytesExtra, event_metrics.bytesExtra);
    EXPECT_EQ(metrics.adaptDemotions, event_metrics.adaptDemotions);
    EXPECT_EQ(metrics.adaptPromotions, event_metrics.adaptPromotions);
    EXPECT_EQ(metrics.adaptReencBytes, event_metrics.adaptReencBytes);
    EXPECT_EQ(stats, event_stats);
}

/** Random spec shaped like test_kernel_loop_diff's generator, biased
 *  toward read-heavy streams so demotions actually fire. */
workload::WorkloadSpec
randomAdaptiveSpec(Rng &rng, unsigned idx)
{
    workload::WorkloadSpec w;
    w.name = "adapt_rand_" + std::to_string(idx);
    w.suite = "diff";
    w.seed = rng.next();

    std::uint32_t nbufs = 1 + static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t b = 0; b < nbufs; ++b) {
        workload::BufferSpec buf;
        buf.name = "b" + std::to_string(b);
        buf.bytes = (64 + rng.below(192)) << 10;
        w.buffers.push_back(buf);
    }

    static constexpr workload::Pattern patterns[] = {
        workload::Pattern::Streaming, workload::Pattern::Random,
        workload::Pattern::RandomHot, workload::Pattern::Strided};

    std::uint32_t nkernels = 1 + static_cast<std::uint32_t>(rng.below(2));
    for (std::uint32_t k = 0; k < nkernels; ++k) {
        workload::KernelSpec ks;
        ks.name = "k" + std::to_string(k);
        ks.iterationsPerSm = 64 + rng.below(192);
        ks.computePerMem = static_cast<std::uint32_t>(rng.below(4));
        std::uint32_t nstreams =
            1 + static_cast<std::uint32_t>(rng.below(3));
        for (std::uint32_t s = 0; s < nstreams; ++s) {
            workload::StreamSpec ss;
            ss.buffer = static_cast<std::uint32_t>(rng.below(nbufs));
            ss.pattern = patterns[rng.below(4)];
            // Mostly reads, occasional writes: the interesting regime
            // where regions demote and mispredictions promote back.
            ss.write = rng.below(10) < 2;
            ss.prob = 0.5 + 0.5 * static_cast<double>(rng.below(2));
            ks.streams.push_back(ss);
        }
        if (k == 0) {
            for (std::uint32_t b = 0; b < nbufs; ++b) {
                workload::HostCopySpec hc;
                hc.buffer = b;
                hc.marksReadOnly = rng.below(4) != 0;
                ks.preCopies.push_back(hc);
            }
        }
        w.kernels.push_back(ks);
    }
    return w;
}

} // namespace

TEST(AdaptiveKernelLoopDiff, MicrosAcrossEpochsAndThresholds)
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;

    const AdaptThresholds mixes[] = {
        {},                 // scheme defaults
        {1, 2, 0.0},        // hair-trigger: everything demotes
        {1000000, 1000000, 1.0}, // never demotes (pure-Full timing)
    };
    for (const auto &w :
         {workload::makeStreamingMicro(1 << 20, 256),
          workload::makeMixedMicro()}) {
        for (Cycle epoch : {Cycle{0}, Cycle{2000}, Cycle{10000}}) {
            for (const auto &th : mixes) {
                mee::MeeParams mp = schemes::makeMeeParams(
                    schemes::Scheme::ShmAdaptive);
                mp.adaptEpoch = epoch;
                mp.adaptThresholds = th;
                expectAdaptiveIdentical(
                    gp, mp, w,
                    w.name + " epoch=" + std::to_string(epoch) +
                        " ro>=" + std::to_string(th.roMinReads));
            }
        }
    }
}

TEST(AdaptiveKernelLoopDiff, RandomizedSpecs)
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;
    Rng rng(0xADA9u);
    for (unsigned i = 0; i < 8; ++i) {
        auto w = randomAdaptiveSpec(rng, i);
        mee::MeeParams mp =
            schemes::makeMeeParams(schemes::Scheme::ShmAdaptive);
        mp.adaptEpoch = 1000 + rng.below(4) * 3000;
        mp.adaptThresholds.roMinReads = 1 + rng.below(8);
        mp.adaptThresholds.streamMinReads = 2 + rng.below(16);
        mp.adaptThresholds.macOnlyMissRate =
            0.25 * static_cast<double>(rng.below(4));
        expectAdaptiveIdentical(gp, mp, w, w.name);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveDiff,
                         ::testing::Values(7ull, 99ull, 0xC0FFEEull));
