/**
 * @file
 * Scenario determinism fuzz: random tenant mixes x schemes x share
 * policies, each run twice, requiring full stats-tree equality.
 * This is the property the CI byte-compare job samples at one point;
 * here it is hammered across the configuration space.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "gpu/presets.hh"
#include "gpu/simulator.hh"
#include "schemes/schemes.hh"
#include "workload/benchmarks.hh"
#include "workload/scenario.hh"

using namespace shmgpu;

namespace
{

gpu::GpuParams
fuzzConfig()
{
    gpu::GpuParams gp = gpu::testConfig();
    gp.numSms = 8;
    gp.numPartitions = 6;
    return gp;
}

workload::WorkloadSpec
randomWorkload(Rng &rng)
{
    // Small footprints/iteration counts keep a fuzz trial cheap while
    // still exercising multi-kernel dispatch and both access shapes.
    switch (rng.below(3)) {
      case 0:
        return workload::makeStreamingMicro(1 << 18, 512);
      case 1:
        return workload::makeRandomMicro(1 << 18, 512);
      default:
        return workload::makeMixedMicro();
    }
}

workload::ScenarioSpec
randomScenario(Rng &rng)
{
    workload::ScenarioSpec scn;
    scn.name = "fuzz";
    scn.policy = rng.chance(0.5) ? workload::SharePolicy::TimeSliced
                                 : workload::SharePolicy::Partitioned;
    scn.quantumCycles = 500 + rng.below(8000);
    scn.flushMdcOnSwitch = rng.chance(0.5);
    scn.keySeed = 1 + rng.below(4);

    const std::size_t n = 1 + rng.below(3);
    for (std::size_t i = 0; i < n; ++i) {
        workload::TenantSpec t;
        t.workload = randomWorkload(rng);
        t.name = t.workload.name + "#" + std::to_string(i);
        t.arrivalCycle = rng.below(3) * 2500;
        scn.tenants.push_back(std::move(t));
    }
    return scn;
}

schemes::Scheme
randomScheme(Rng &rng, workload::SharePolicy policy)
{
    // Partitioned scenarios require local metadata addressing (each
    // tenant's metadata lives inside its own partition slice), which
    // rules out the globally-addressed Naive layout there.
    if (policy == workload::SharePolicy::Partitioned) {
        const schemes::Scheme pool[] = {
            schemes::Scheme::Baseline, schemes::Scheme::Pssm,
            schemes::Scheme::Shm};
        return pool[rng.below(3)];
    }
    const schemes::Scheme pool[] = {
        schemes::Scheme::Baseline, schemes::Scheme::Naive,
        schemes::Scheme::Pssm, schemes::Scheme::Shm};
    return pool[rng.below(4)];
}

std::string
statsOf(const gpu::GpuParams &gp, schemes::Scheme scheme,
        const workload::ScenarioSpec &scn)
{
    gpu::GpuSimulator sim(gp, schemes::makeMeeParams(scheme), scn);
    sim.run();
    std::ostringstream os;
    sim.statsRoot().dump(os);
    return os.str();
}

class ScenarioDeterminismFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(ScenarioDeterminismFuzz, StatsTreeIsReproducible)
{
    Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 0xC0FFEE);
    const workload::ScenarioSpec scn = randomScenario(rng);
    const schemes::Scheme scheme = randomScheme(rng, scn.policy);
    SCOPED_TRACE(workload::sharePolicyName(scn.policy) +
                 std::string("/") + schemes::schemeName(scheme) +
                 "/tenants=" + std::to_string(scn.tenants.size()) +
                 "/quantum=" + std::to_string(scn.quantumCycles));

    const gpu::GpuParams gp = fuzzConfig();
    const std::string want = statsOf(gp, scheme, scn);
    EXPECT_EQ(statsOf(gp, scheme, scn), want) << "repeat diverged";
}

INSTANTIATE_TEST_SUITE_P(Mixes, ScenarioDeterminismFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));
