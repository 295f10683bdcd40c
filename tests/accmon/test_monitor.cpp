/**
 * @file
 * AccessMonitor + SchemeEngine pins: the engine's promote / demote /
 * cap actions and their quotas against a scripted fake plane, the
 * standoff contract, the monitor's instruments and snapshots, and the
 * no-perturbation guarantee — a testbed run is bit-identical with the
 * monitor attached (schemes off) or absent.
 */
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accmon/monitor.hpp"
#include "accmon/region.hpp"
#include "accmon/scheme.hpp"
#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "workloads/netperf.hpp"

namespace octo::accmon {
namespace {

constexpr sim::Tick kInterval = AccessMonitor::kAggregation;

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

/** Scripted steerable plane: queues [0, localCount) are DMA-local,
 *  placements are recorded verbatim. */
class FakePlane : public steer::SteerablePlane
{
  public:
    explicit FakePlane(sim::Simulator& sim, int queues = 8,
                      int local_count = 2)
        : sim_(sim), queues_(queues), localCount_(local_count)
    {
    }

    const char* planeName() const override { return "fake"; }
    sim::Simulator& planeSim() override { return sim_; }
    int pfCount() const override { return 2; }
    int steerableQueueCount() const override { return queues_; }
    steer::EndpointTelemetry
    telemetry(const steer::Endpoint&) const override
    {
        return {};
    }
    void resteer(const steer::Endpoint&, int) override {}
    void drain(const steer::Endpoint&) override {}
    std::uint64_t resteersPerformed() const override { return 0; }

    bool
    placeFlow(const nic::FiveTuple& flow, int qid) override
    {
        if (rejectPlacements)
            return false;
        placements.emplace_back(flow, qid);
        return true;
    }
    void
    unplaceFlow(const nic::FiveTuple& flow) override
    {
        unplacements.push_back(flow);
    }
    bool
    queueDmaLocal(int qid) const override
    {
        return qid >= 0 && qid < localCount_;
    }

    bool rejectPlacements = false;
    std::vector<std::pair<nic::FiveTuple, int>> placements;
    std::vector<nic::FiveTuple> unplacements;

  private:
    sim::Simulator& sim_;
    int queues_;
    int localCount_;
};

/** Feed @p n hot keys, far apart in hash space, all classified to a
 *  non-local queue — each becomes its region's elected candidate. */
void
feedHotRegions(RegionSet& rs, int n, std::uint64_t bytes_per = 1500,
               int records = 200)
{
    for (int k = 0; k < n; ++k) {
        const std::uint64_t key =
            (UINT64_MAX / static_cast<std::uint64_t>(n + 1)) *
            static_cast<std::uint64_t>(k + 1);
        for (int i = 0; i < records; ++i)
            rs.record(key, bytes_per, flowFor(key), /*qid=*/5, true);
    }
}

/** Feed + close @p rounds intervals so the partition zooms in on the
 *  hot keys (one split per hot region per close), then feed once more
 *  to re-arm the open interval's candidates for the engine. */
void
growPartition(RegionSet& rs, int n, int rounds)
{
    for (int t = 0; t < rounds; ++t) {
        feedHotRegions(rs, n);
        rs.closeInterval(kInterval);
    }
    feedHotRegions(rs, n);
}

TEST(SchemeEngine, PromotesHotCandidatesToLocalQueues)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    SchemeEngine eng(plane, {promote});

    RegionSet rs;
    growPartition(rs, 4, 3);
    eng.onInterval(rs, kInterval);

    EXPECT_GT(eng.promotions(), 0u);
    EXPECT_EQ(eng.promotions(), plane.placements.size());
    EXPECT_EQ(eng.placedCount(), plane.placements.size());
    for (const auto& [flow, qid] : plane.placements)
        EXPECT_TRUE(plane.queueDmaLocal(qid))
            << "promotion must target a DMA-local queue";
}

TEST(SchemeEngine, QuotaBoundsPerIntervalChurn)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    promote.minRegionShare = 0.0;
    promote.quota = 2;
    SchemeEngine eng(plane, {promote});

    RegionSet rs;
    growPartition(rs, 8, 6); // enough splits for >2 candidates
    eng.onInterval(rs, kInterval);

    EXPECT_LE(eng.promotions(), 2u) << "quota must cap the interval";
    EXPECT_GT(eng.quotaDeferred(), 0u)
        << "deferred work must be visible, not silent";
}

TEST(SchemeEngine, MinAgeGateRejectsFreshRegions)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    promote.minAge = 100; // stricter than any region can satisfy here
    SchemeEngine eng(plane, {promote});

    RegionSet rs;
    growPartition(rs, 4, 3);
    eng.onInterval(rs, kInterval);
    EXPECT_EQ(eng.promotions(), 0u)
        << "age gate must hold back still-reshaping regions";
}

TEST(SchemeEngine, StandoffYieldsThePlaneToReactiveVerdicts)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    SchemeEngine eng(plane, {promote});
    bool unhealthy = true;
    eng.setStandoff([&unhealthy] { return unhealthy; });

    RegionSet rs;
    growPartition(rs, 4, 3);

    eng.onInterval(rs, kInterval);
    EXPECT_EQ(eng.promotions(), 0u);
    EXPECT_EQ(eng.standoffIntervals(), 1u);
    EXPECT_EQ(eng.intervalsApplied(), 0u);

    // Recovery: the same interval state promotes once standoff lifts.
    unhealthy = false;
    eng.onInterval(rs, kInterval);
    EXPECT_GT(eng.promotions(), 0u);
}

TEST(SchemeEngine, DemotesIdlePlacementsAfterGrace)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    SchemeConfig demote;
    demote.action = Action::DemoteIdle;
    demote.idleIntervals = 3;
    SchemeEngine eng(plane, {promote, demote});

    RegionSet rs;
    growPartition(rs, 2, 3);
    eng.onInterval(rs, kInterval);
    const std::uint64_t placed = eng.promotions();
    ASSERT_GT(placed, 0u);

    // The placed flows go silent: after idleIntervals quiet intervals
    // they fall back to RSS.
    rs.closeInterval(kInterval);
    for (int t = 0; t < 3; ++t)
        eng.onInterval(rs, kInterval);
    EXPECT_EQ(eng.demotions(), placed);
    EXPECT_EQ(eng.placedCount(), 0u);
    EXPECT_EQ(plane.unplacements.size(), placed);
}

TEST(SchemeEngine, CapEvictsColdestBeyondTableLimit)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;
    promote.minRegionShare = 0.0;
    promote.maxPlacements = 16;
    SchemeConfig cap;
    cap.action = Action::Cap;
    cap.maxPlacements = 2;
    SchemeEngine eng(plane, {promote, cap});

    RegionSet rs;
    growPartition(rs, 6, 6);
    eng.onInterval(rs, kInterval);

    ASSERT_GT(eng.promotions(), 2u)
        << "test must place beyond the cap to exercise eviction";
    EXPECT_LE(eng.placedCount(), 2u) << "cap must hold after interval";
    EXPECT_GT(eng.demotions(), 0u);
}

TEST(AccessMonitor, AggregatesAndSnapshotsOnSchedule)
{
    sim::Simulator sim;
    obs::Hub hub;
    sim.setHub(&hub);
    AccessMonitor mon(sim, &hub, "nic0");
    mon.start();

    sim::Rng rng(9);
    for (int t = 0; t < 5; ++t) {
        for (int i = 0; i < 500; ++i)
            mon.record(flowFor(rng.below(64)), 1500, 3);
        sim.runUntil(sim.now() + kInterval);
    }
    mon.stop();

    EXPECT_EQ(mon.intervals(), 5u);
    EXPECT_EQ(mon.recordsSeen(), 2500u);
    EXPECT_EQ(mon.snapshots().size(), 5u);
    EXPECT_GT(mon.overheadNs(), 0u) << "self-cost must be measured";
    for (const obs::RegionSampleData& s : mon.snapshots())
        EXPECT_FALSE(s.rows.empty());

    // Instruments live in the registry under the device label.
    obs::MetricRegistry& reg = hub.metrics();
    const obs::Labels l = {{"dev", "nic0"}};
    ASSERT_NE(reg.findGauge("accmon_regions", l), nullptr);
    EXPECT_GE(reg.findGauge("accmon_regions", l)->value(), 1.0);
    ASSERT_NE(reg.findCounter("accmon_intervals_total", l), nullptr);
    EXPECT_EQ(reg.findCounter("accmon_intervals_total", l)->value(),
              5u);
    ASSERT_NE(reg.findCounter("accmon_records_total", l), nullptr);
    EXPECT_EQ(reg.findCounter("accmon_records_total", l)->value(),
              2500u);
    ASSERT_NE(reg.findCounter("accmon_overhead_ns_total", l), nullptr);
}

TEST(AccessMonitor, SamplingScalesAttributedBytes)
{
    // DAMON-style sampling: only every 16th record is attributed, with
    // bytes scaled by 16 — so for a uniform-size record stream whose
    // length divides 16, the scaled lifetime total is *exactly* the
    // stream's byte total.
    static_assert(AccessMonitor::kSampleEvery == 16);
    sim::Simulator sim;
    AccessMonitor mon(sim, nullptr, "nic0");
    mon.start();
    sim::Rng rng(11);
    for (int i = 0; i < 400; ++i)
        mon.record(flowFor(rng.below(32)), 1500, 2);
    sim.runUntil(sim.now() + kInterval);
    mon.stop();
    EXPECT_EQ(mon.recordsSeen(), 400u)
        << "every record is counted regardless of sampling";
    EXPECT_EQ(mon.regions().totalCumBytes(), 400u * 1500u);
}

TEST(AccessMonitor, SnapshotCapDropsInsteadOfGrowing)
{
    sim::Simulator sim;
    AccessMonitor mon(sim, nullptr, "nic0");
    mon.start();
    const std::size_t runs = AccessMonitor::kSnapshotCap + 8;
    for (std::size_t t = 0; t < runs; ++t) {
        mon.record(flowFor(1), 1500, 0);
        sim.runUntil(sim.now() + kInterval);
    }
    EXPECT_EQ(mon.snapshots().size(), AccessMonitor::kSnapshotCap);
    EXPECT_EQ(mon.intervals(), runs);
}

/** 2 ms Rx stream on the Remote preset; returns delivered bytes. */
std::uint64_t
runRemote(bool with_monitor)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Remote;
    cfg.accessMonitor = with_monitor; // schemes stay off: pure observer
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(2));
    if (with_monitor) {
        EXPECT_GT(tb.accessMonitor()->recordsSeen(), 0u)
            << "the datapath hook must feed the monitor";
        EXPECT_EQ(tb.schemeEngine(), nullptr);
    }
    return stream.bytesDelivered();
}

TEST(AccessMonitor, PureObservationDoesNotPerturbTheSimulation)
{
    const std::uint64_t without = runRemote(false);
    const std::uint64_t with = runRemote(true);
    EXPECT_GT(without, 0u);
    EXPECT_EQ(without, with)
        << "monitor attached (schemes off) must be bit-identical";
}

TEST(Testbed, SchemesWireToPlaneAndHealthStandoff)
{
    // Ioctopus + health monitor + schemes: everything constructs, the
    // engine is attached, and a healthy run never stands off.
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.healthMonitor = true;
    cfg.accessMonitor = true;
    cfg.accmonSchemes = true;
    core::Testbed tb(cfg);
    ASSERT_NE(tb.accessMonitor(), nullptr);
    ASSERT_NE(tb.schemeEngine(), nullptr);
    ASSERT_EQ(tb.accessMonitor()->engine(), tb.schemeEngine());

    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(3));
    EXPECT_GT(tb.accessMonitor()->intervals(), 0u);
    EXPECT_EQ(tb.schemeEngine()->standoffIntervals(), 0u)
        << "healthy run must never stand the engine down";
}

} // namespace
} // namespace octo::accmon
