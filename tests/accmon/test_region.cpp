/**
 * @file
 * Region-algebra pins (DESIGN.md §12): deterministic split/merge under
 * a seeded synthetic pattern, region-count convergence into the
 * configured bounds, exact cumulative-byte conservation across every
 * split and merge, the gap-free partition invariant, and the
 * Misra-Gries hottest-flow election.
 */
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "accmon/region.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace octo::accmon {
namespace {

constexpr sim::Tick kInterval = sim::fromUs(1000);

nic::FiveTuple
flowFor(std::uint64_t i)
{
    nic::FiveTuple f;
    f.srcIp = 10;
    f.dstIp = 20;
    f.srcPort = static_cast<std::uint16_t>(i & 0xFFFF);
    f.dstPort = 5001;
    f.proto = nic::Proto::Udp;
    return f;
}

/** Sum of every region's open-interval bytes. */
std::uint64_t
sumCum(const RegionSet& rs)
{
    std::uint64_t s = 0;
    for (const Region& r : rs.regions())
        s += r.cumBytes;
    return s;
}

/** Feed a seeded skewed pattern: a few dominant hash points plus a
 *  uniform background, @p records records per interval. */
std::uint64_t
feedSkewed(RegionSet& rs, sim::Rng& rng, int records)
{
    std::uint64_t fed = 0;
    for (int i = 0; i < records; ++i) {
        std::uint64_t key;
        if (rng.chance(0.6)) {
            // Three hot points spread across the space.
            const std::uint64_t hot[] = {UINT64_C(0x1111111111111111),
                                         UINT64_C(0x8888888888888888),
                                         UINT64_C(0xEEEEEEEEEEEEEEEE)};
            key = hot[rng.below(3)];
        } else {
            key = rng.next();
        }
        const std::uint64_t bytes = 1500;
        rs.record(key, bytes, flowFor(key), 3, true);
        fed += bytes;
    }
    return fed;
}

TEST(RegionSet, StartsAsOneWholeSpaceRegion)
{
    RegionSet rs;
    ASSERT_EQ(rs.regionCount(), 1);
    EXPECT_EQ(rs.regions().front().lo, 0u);
    EXPECT_EQ(rs.regions().front().hi, UINT64_MAX);
}

TEST(RegionSet, PartitionStaysSortedAndGapFree)
{
    RegionSet rs;
    sim::Rng rng(42);
    for (int t = 0; t < 50; ++t) {
        feedSkewed(rs, rng, 2000);
        rs.closeInterval(kInterval);

        const auto& regions = rs.regions();
        ASSERT_FALSE(regions.empty());
        EXPECT_EQ(regions.front().lo, 0u);
        EXPECT_EQ(regions.back().hi, UINT64_MAX);
        for (std::size_t i = 1; i < regions.size(); ++i) {
            EXPECT_EQ(regions[i].lo, regions[i - 1].hi + 1)
                << "gap/overlap at region " << i;
        }
        // find() agrees with the partition.
        for (const Region& r : regions) {
            EXPECT_TRUE(
                regions[static_cast<std::size_t>(rs.find(r.lo))]
                    .contains(r.lo));
            EXPECT_TRUE(
                regions[static_cast<std::size_t>(rs.find(r.hi))]
                    .contains(r.hi));
        }
    }
}

TEST(RegionSet, SplitMergeIsDeterministicUnderSeededPattern)
{
    const auto run = [] {
        RegionSet rs;
        sim::Rng rng(7);
        for (int t = 0; t < 30; ++t) {
            feedSkewed(rs, rng, 3000);
            rs.closeInterval(kInterval);
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> shape;
        for (const Region& r : rs.regions())
            shape.emplace_back(r.lo, r.hi);
        return std::make_tuple(shape, rs.splits(), rs.merges());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    EXPECT_GT(std::get<1>(a), 0u) << "pattern must exercise splits";
    EXPECT_GT(std::get<2>(a), 0u) << "pattern must exercise merges";
}

TEST(RegionSet, RegionCountConvergesIntoConfiguredBounds)
{
    RegionSet rs;
    sim::Rng rng(3);
    for (int t = 0; t < 100; ++t) {
        feedSkewed(rs, rng, 4000);
        rs.closeInterval(kInterval);
        EXPECT_LE(rs.regionCount(), RegionSet::kMaxRegions);
    }
    // After the warm-up the partition must have left the single-region
    // state and sit inside [min, max] for good.
    EXPECT_GE(rs.regionCount(), RegionSet::kMinRegions);
    EXPECT_LE(rs.regionCount(), RegionSet::kMaxRegions);
}

TEST(RegionSet, CumBytesConservedAcrossSplitsAndMerges)
{
    RegionSet rs;
    sim::Rng rng(13);
    std::uint64_t fed = 0;
    for (int t = 0; t < 60; ++t) {
        fed += feedSkewed(rs, rng, 2500);
        rs.closeInterval(kInterval);
        // Conservation to the byte, at every interval close, however
        // many splits/merges just reshaped the partition.
        ASSERT_EQ(sumCum(rs), fed) << "at interval " << t;
        ASSERT_EQ(rs.totalCumBytes(), fed);
    }
    EXPECT_GT(rs.splits(), 0u);
    EXPECT_GT(rs.merges(), 0u);
}

TEST(RegionSet, MisraGriesElectsDominantFlow)
{
    RegionSet rs;
    sim::Rng rng(5);
    const std::uint64_t dominant = UINT64_C(0x4242424242424242);
    // 60% dominant key, 40% uniform noise: a strict majority, which
    // the Misra-Gries lead is guaranteed to elect.
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t key =
            rng.chance(0.6) ? dominant : rng.next();
        rs.record(key, 1500, flowFor(key), 7, true);
    }
    const Region& r =
        rs.regions()[static_cast<std::size_t>(rs.find(dominant))];
    ASSERT_TRUE(r.candValid);
    EXPECT_EQ(r.candKey, dominant);
    EXPECT_EQ(r.candQid, 7);
}

TEST(RegionSet, PlacedKeysExcludedFromElection)
{
    // track_candidate=false (the monitor's placed-flow path) must keep
    // the key out of the election so the region surfaces its *next*
    // hottest flow.
    RegionSet rs;
    const std::uint64_t placed = 100;
    const std::uint64_t runner = 200;
    for (int i = 0; i < 100; ++i)
        rs.record(placed, 1500, flowFor(placed), 1, false);
    for (int i = 0; i < 10; ++i)
        rs.record(runner, 1500, flowFor(runner), 2, true);
    const Region& r = rs.regions().front();
    ASSERT_TRUE(r.candValid);
    EXPECT_EQ(r.candKey, runner);
}

TEST(RegionSet, CloseIntervalDerivesRates)
{
    RegionSet rs;
    rs.record(1, 125'000'000, flowFor(1), 0, true);
    rs.closeInterval(sim::fromMs(1));
    // 125 MB over 1 ms = 125 GB/s = 125e9 bytes per second.
    EXPECT_DOUBLE_EQ(rs.regions().front().rateBps, 125e9);
    EXPECT_EQ(rs.regions().front().bytes, 0u) << "interval reset";
    EXPECT_EQ(rs.intervals(), 1u);
}

} // namespace
} // namespace octo::accmon
