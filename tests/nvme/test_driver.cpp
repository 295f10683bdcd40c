/**
 * @file
 * Multi-queue NVMe driver tests: the completion entry follows the
 * *submitter's* socket (not the data buffer's), per-node submission
 * queues keep IOs off the interconnect, and the health monitor steers
 * an SQ behind the healthy port when its local port degrades — and
 * home again on recovery — through the same steer::SteerablePlane
 * plumbing as the NIC.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "health/monitor.hpp"
#include "nvme/driver.hpp"
#include "nvme/nvme.hpp"
#include "os/thread.hpp"
#include "sim/simulator.hpp"
#include "steer/endpoint.hpp"
#include "topo/calibration.hpp"
#include "topo/machine.hpp"
#include "workloads/fio.hpp"

namespace octo::nvme {
namespace {

using health::HealthState;
using sim::fromMs;
using steer::Endpoint;

// ---------------------------------------------------------------------
// Regression for the CQ-placement bug: a read into a cross-socket
// buffer must NOT drag the 64 B completion entry to the buffer's node.
// The CQE lands in the submitter's completion queue.
// ---------------------------------------------------------------------
TEST(NvmeDriver, CompletionEntryFollowsSubmitterNotBuffer)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 4, "ssd"); // port on node 0
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1); // single-port drive: homed on the node-0 port too

    auto t = sim::spawn([&]() -> sim::Task<> {
        // Everything on node 0: nothing crosses the interconnect.
        co_await drv.read(128u << 10, 0, 0);
        EXPECT_EQ(m.qpiBytesTotal(), 0u);
        // Same local buffer, but the submitting core sits on node 1:
        // exactly the completion entry crosses — 64 bytes, not the
        // 128 KiB payload.
        co_await drv.read(128u << 10, 0, 1);
        EXPECT_EQ(m.qpiBytesTotal(), 64u);
    });
    sim.run();
    EXPECT_EQ(ssd.completions(), 2u);
}

// ---------------------------------------------------------------------
// Per-node SQs over a dual-port drive: each node's IOs use its local
// port, so payload and CQE both stay on-socket.
// ---------------------------------------------------------------------
TEST(NvmeDriver, PerNodeSqsKeepIosOffTheInterconnect)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 4, "ssd");
    ssd.addSecondPort(1, 4);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);

    auto t = sim::spawn([&]() -> sim::Task<> {
        co_await drv.read(128u << 10, 1, 1); // node 1 all the way
        co_await drv.read(128u << 10, 0, 0); // node 0 all the way
    });
    sim.run();

    EXPECT_EQ(m.qpiBytesTotal(), 0u);
    EXPECT_EQ(drv.sq(0).ios, 1u);
    EXPECT_EQ(drv.sq(1).ios, 1u);
    EXPECT_EQ(drv.sq(1).bytes, 128u << 10);
    EXPECT_EQ(ssd.completions(), 2u);
    EXPECT_EQ(drv.sq(0).pf, drv.sq(0).homePf);
    EXPECT_EQ(drv.sq(1).pf, drv.sq(1).homePf);
}

// ---------------------------------------------------------------------
// The monitor judges the drive's ports through the same plane interface
// as the NIC: when node 0's port retrains to x2, SQ 0 is re-steered
// behind the healthy x8 port (trading a QPI hop for bandwidth) while
// SQ 1 never moves; on retrain recovery SQ 0 comes home.
// ---------------------------------------------------------------------
TEST(NvmeDriver, MonitorSteersSqBehindHealthyPortAndHome)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);
    health::HealthMonitor mon(drv);
    mon.start();

    sim.schedule(fromMs(10), [&] { ssd.port(0).degradeWidth(2); });
    sim.schedule(fromMs(40), [&] { ssd.port(0).restoreLink(); });

    sim.runUntil(fromMs(20));
    EXPECT_EQ(mon.state(0), HealthState::Degraded);
    EXPECT_EQ(mon.state(1), HealthState::Healthy);
    EXPECT_EQ(drv.sq(0).pf, 1) << "SQ 0 not steered off the x2 port";
    EXPECT_EQ(drv.sq(1).pf, 1) << "SQ 1 should never have moved";
    EXPECT_GE(drv.resteersPerformed(), 1u);

    sim.runUntil(fromMs(80));
    EXPECT_EQ(mon.state(0), HealthState::Healthy);
    EXPECT_EQ(drv.sq(0).pf, drv.sq(0).homePf) << "SQ 0 did not come home";
    EXPECT_EQ(drv.sq(1).pf, drv.sq(1).homePf);
}

// ---------------------------------------------------------------------
// Administrative drain at SQ grain: maintenance evacuates the SQ with
// no fault recorded; undrain brings it home.
// ---------------------------------------------------------------------
TEST(NvmeDriver, AdminDrainEvacuatesSqAndUndrainReturnsHome)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);
    health::HealthMonitor mon(drv);
    mon.start();

    sim.runUntil(fromMs(5));
    mon.drainEndpoint(Endpoint::ofQueue(0, 0));
    EXPECT_TRUE(mon.drained(Endpoint::ofQueue(0, 0)));
    EXPECT_EQ(drv.sq(0).pf, 1);
    EXPECT_EQ(drv.sq(1).pf, 1) << "sibling SQ must stay home";
    EXPECT_GE(drv.adminDrains(), 1u);
    EXPECT_EQ(mon.queueState(0), HealthState::Healthy)
        << "maintenance is not a fault";

    sim.runUntil(fromMs(10));
    mon.undrain(Endpoint::ofQueue(0, 0));
    sim.runUntil(fromMs(15));
    EXPECT_EQ(drv.sq(0).pf, drv.sq(0).homePf);
    EXPECT_EQ(drv.drainWatchdogFires(), 0u);
}

// ---------------------------------------------------------------------
// fio through the driver: a node-1 reader at depth sustains media-rate
// throughput with zero interconnect traffic (its SQ is homed on the
// node-1 port).
// ---------------------------------------------------------------------
TEST(NvmeDriver, FioThroughDriverStaysLocal)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 4, "ssd");
    ssd.addSecondPort(1, 4);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);

    workloads::FioConfig fc;
    workloads::FioThread fio(os::ThreadCtx(m, m.coreOn(1, 0)),
                             std::vector<NvmeDriver*>{&drv}, fc);
    fio.start();
    sim.runUntil(fromMs(20));

    // 25 Gb/s media over 20 ms is ~62 MB; allow generous slack.
    EXPECT_GT(fio.bytesRead(), 40u * 1000 * 1000);
    EXPECT_LT(fio.bytesRead(), 90u * 1000 * 1000);
    EXPECT_EQ(m.qpiBytesTotal(), 0u);
    EXPECT_EQ(drv.sq(0).ios, 0u);
    EXPECT_GT(drv.sq(1).ios, 100u);
}

// ---------------------------------------------------------------------
// Weighted port striping: a degraded-but-alive local port keeps its
// health-weighted share of the node's IOs instead of being abandoned
// wholesale — the NVMe mirror of the NIC plane's queue spread.
// ---------------------------------------------------------------------
TEST(NvmeDriver, WeightedStripingSplitsIosByHealthWeight)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);
    drv.setWeightedSteering(true);
    // Local port at quarter health: keepLocalShare(0.25, 1.0) = 0.25,
    // so exactly 4 of every 16 slots stay home.
    drv.applyPfWeights({0.25, 1.0});

    constexpr int kIos = 320; // 20 full slot rings
    auto t = sim::spawn([&]() -> sim::Task<> {
        for (int i = 0; i < kIos; ++i)
            co_await drv.read(16u << 10, 0, 0);
    });
    sim.run();

    ASSERT_EQ(drv.sq(0).ios, static_cast<std::uint64_t>(kIos));
    EXPECT_EQ(drv.sqPortIos(0, 0), kIos / 4)
        << "local port lost its weighted quarter share";
    EXPECT_EQ(drv.sqPortIos(0, 1), kIos - kIos / 4);
    // Command balance held through the split.
    EXPECT_EQ(drv.sq(0).done, static_cast<std::uint64_t>(kIos));
    EXPECT_EQ(drv.sq(0).inflight, 0);
}

TEST(NvmeDriver, WeightedStripingDegeneratesAtTheExtremes)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);
    drv.setWeightedSteering(true);

    auto t = sim::spawn([&]() -> sim::Task<> {
        // Equal health: everything stays on the home port.
        drv.applyPfWeights({1.0, 1.0});
        for (int i = 0; i < 32; ++i)
            co_await drv.read(4u << 10, 0, 0);
        EXPECT_EQ(drv.sqPortIos(0, 0), 32u);
        EXPECT_EQ(drv.sqPortIos(0, 1), 0u);
        // Local port dead: everything moves to the alternate.
        drv.applyPfWeights({0.0, 1.0});
        for (int i = 0; i < 32; ++i)
            co_await drv.read(4u << 10, 0, 0);
        EXPECT_EQ(drv.sqPortIos(0, 0), 32u);
        EXPECT_EQ(drv.sqPortIos(0, 1), 32u);
    });
    sim.run();
}

TEST(NvmeDriver, MonitorWeightsDriveTheStripeUnderDegradation)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);
    health::HealthMonitor mon(drv);
    mon.start();

    sim.schedule(fromMs(10), [&] { ssd.port(0).degradeWidth(2); });

    std::uint64_t local_before = 0, remote_before = 0;
    auto t = sim::spawn([&]() -> sim::Task<> {
        // Before the retrain: node 0's IOs all run the local port.
        for (int i = 0; i < 64; ++i)
            co_await drv.read(16u << 10, 0, 0);
        local_before = drv.sqPortIos(0, 0);
        remote_before = drv.sqPortIos(0, 1);
        // Wait out the monitor's verdict on the x2 retrain, then issue
        // another batch: the stripe must now send *some but not all*
        // IOs across — degraded-but-alive keeps a share.
        co_await sim::delay(sim, fromMs(20));
        for (int i = 0; i < 64; ++i)
            co_await drv.read(16u << 10, 0, 0);
    });
    sim.run();

    EXPECT_EQ(local_before, 64u);
    EXPECT_EQ(remote_before, 0u);
    const std::uint64_t local_after = drv.sqPortIos(0, 0) - local_before;
    const std::uint64_t remote_after = drv.sqPortIos(0, 1);
    EXPECT_GT(remote_after, 0u)
        << "degraded port kept everything: weights never applied";
    EXPECT_GT(local_after, 0u)
        << "degraded-but-alive port abandoned instead of down-weighted";
}

} // namespace
} // namespace octo::nvme
