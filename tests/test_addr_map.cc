/**
 * @file
 * Partition address-mapping tests: the map must be a bijection, keep
 * stripes intact, and balance load across partitions.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/addr_map.hh"

using namespace shmgpu;
using namespace shmgpu::mem;

class AddrMapParamTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>>
{
};

TEST_P(AddrMapParamTest, RoundTripIsIdentity)
{
    auto [partitions, stripe] = GetParam();
    AddressMap map(partitions, stripe);
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.below(1ull << 34);
        PartitionAddr pa = map.toLocal(addr);
        EXPECT_LT(pa.partition, partitions);
        EXPECT_EQ(map.toPhysical(pa.partition, pa.local), addr);
    }
}

TEST_P(AddrMapParamTest, SequentialSpreadIsBalanced)
{
    auto [partitions, stripe] = GetParam();
    AddressMap map(partitions, stripe);
    std::vector<std::uint64_t> counts(partitions, 0);
    const std::uint64_t stripes = 12000;
    for (std::uint64_t s = 0; s < stripes; ++s)
        ++counts[map.toLocal(s * stripe).partition];
    for (unsigned p = 0; p < partitions; ++p) {
        double share = static_cast<double>(counts[p]) / stripes;
        EXPECT_NEAR(share, 1.0 / partitions, 0.02);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddrMapParamTest,
    ::testing::Values(std::make_tuple(12u, 256ull),
                      std::make_tuple(12u, 512ull),
                      std::make_tuple(8u, 256ull),
                      std::make_tuple(6u, 128ull),
                      std::make_tuple(1u, 256ull),
                      std::make_tuple(16u, 1024ull)));

TEST(AddrMap, StripeStaysContiguous)
{
    AddressMap map(12, 256);
    // All bytes of one stripe land in the same partition, at
    // consecutive local offsets.
    Addr base = 7 * 256;
    PartitionAddr first = map.toLocal(base);
    for (Addr off = 1; off < 256; ++off) {
        PartitionAddr pa = map.toLocal(base + off);
        EXPECT_EQ(pa.partition, first.partition);
        EXPECT_EQ(pa.local, first.local + off);
    }
}

TEST(AddrMap, LocalAddressesAreDense)
{
    // Walking one super-stripe of physical space gives each partition
    // exactly one stripe of local space.
    AddressMap map(12, 256);
    std::map<PartitionId, std::vector<LocalAddr>> locals;
    for (unsigned s = 0; s < 12 * 50; ++s) {
        PartitionAddr pa = map.toLocal(Addr{s} * 256);
        locals[pa.partition].push_back(pa.local);
    }
    for (auto &[p, addrs] : locals) {
        ASSERT_EQ(addrs.size(), 50u);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            EXPECT_EQ(addrs[i], i * 256) << "partition " << p;
    }
}

TEST(AddrMap, SwizzleBreaksPowerOfTwoStrides)
{
    // With the XOR swizzle, a large power-of-two stride should not
    // hammer a single partition.
    AddressMap map(8, 256, true);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 800; ++i)
        ++counts[map.toLocal(Addr{static_cast<std::uint64_t>(i)} *
                             (256 * 8 * 4))
                     .partition];
    int max_count = *std::max_element(counts.begin(), counts.end());
    EXPECT_LT(max_count, 400) << "stride collapsed onto one partition";
}

TEST(AddrMap, NoSwizzleKeepsRotation)
{
    AddressMap map(4, 256, false);
    for (unsigned s = 0; s < 64; ++s)
        EXPECT_EQ(map.toLocal(Addr{s} * 256).partition, s % 4);
}

namespace
{

/** The mapping written with plain / and %, as the reference. */
struct NaiveMap
{
    std::uint64_t partitions;
    std::uint64_t stripe;
    bool swizzle;

    std::uint64_t
    sw(std::uint64_t super_index) const
    {
        if (!swizzle)
            return 0;
        std::uint64_t z = super_index * 0x9E3779B97F4A7C15ull;
        z ^= z >> 29;
        return z % partitions;
    }

    PartitionAddr
    toLocal(Addr addr) const
    {
        std::uint64_t s = addr / stripe;
        std::uint64_t super_index = s / partitions;
        PartitionAddr out;
        out.partition = static_cast<PartitionId>(
            (s % partitions + sw(super_index)) % partitions);
        out.local = super_index * stripe + addr % stripe;
        return out;
    }

    Addr
    toPhysical(PartitionId partition, LocalAddr local) const
    {
        std::uint64_t super_index = local / stripe;
        std::uint64_t lane =
            (partition + partitions - sw(super_index) % partitions) %
            partitions;
        return (super_index * partitions + lane) * stripe + local % stripe;
    }
};

} // namespace

TEST(AddrMap, MatchesNaiveDivisionForEveryPartitionCount)
{
    Rng rng(7);
    for (unsigned partitions = 1; partitions <= 64; ++partitions) {
        for (std::uint64_t stripe : {256ull, 384ull, 1ull}) {
            for (bool swizzle : {true, false}) {
                AddressMap map(partitions, stripe, swizzle);
                NaiveMap ref{partitions, stripe, swizzle};
                std::vector<Addr> addrs = {0, 1, stripe - 1, stripe,
                                           partitions * stripe - 1,
                                           partitions * stripe, ~0ull,
                                           ~0ull - stripe};
                for (int i = 0; i < 300; ++i) {
                    addrs.push_back(rng.next());
                    addrs.push_back(rng.below(1ull << 36));
                }
                for (Addr addr : addrs) {
                    PartitionAddr got = map.toLocal(addr);
                    ASSERT_EQ(got, ref.toLocal(addr))
                        << partitions << " partitions, stripe " << stripe
                        << ", addr " << addr;
                    ASSERT_EQ(map.toPhysical(got.partition, got.local),
                              addr);
                    // toPhysical on its own, from an arbitrary local.
                    PartitionId p = static_cast<PartitionId>(
                        rng.below(partitions));
                    LocalAddr local = addr / partitions;
                    ASSERT_EQ(map.toPhysical(p, local),
                              ref.toPhysical(p, local));
                }
            }
        }
    }
}
