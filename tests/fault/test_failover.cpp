/**
 * @file
 * End-to-end fault/recovery tests on the Ioctopus testbed: PF
 * surprise-removal mid-TCP_STREAM must fail over to the surviving PF,
 * rebalance back on recovery, reclaim every lost window credit (no
 * descriptor leak), and replay bit-identically from the same plan.
 */
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "sim/task.hpp"
#include "workloads/netperf.hpp"

namespace octo::fault {
namespace {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::Task;
using sim::fromMs;
using sim::spawn;

/** Ioctopus testbed whose server workload runs on node 1, so the
 *  steered flow's ring sits behind PF1 — the PF the plan kills. */
TestbedConfig
failoverCfg()
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.pfKill(fromMs(300), 1).pfRecover(fromMs(600), 1);
    return cfg;
}

// ---------------------------------------------------------------------
// Acceptance: PF kill mid-stream; post-recovery throughput >= 90% of
// pre-fault, with the loss ledger fully reclaimed.
// ---------------------------------------------------------------------
TEST(FaultFailover, PfKillRecoversToPreFaultThroughput)
{
    Testbed tb(failoverCfg());
    auto server_t = tb.serverThread(1, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    tb.runFor(fromMs(100)); // warmup: steering settles on a PF1 ring
    const std::uint64_t warm = stream.bytesDelivered();
    tb.runFor(fromMs(200)); // 100-300 ms: pre-fault window
    const std::uint64_t pre = stream.bytesDelivered() - warm;
    ASSERT_GT(pre, 0u);

    tb.runFor(fromMs(400)); // 300-700 ms: blackout, failover, rebalance
    const std::uint64_t mark = stream.bytesDelivered();
    tb.runFor(fromMs(300)); // 700-1000 ms: post-recovery window
    const std::uint64_t post = stream.bytesDelivered() - mark;

    // Throughput recovery (windows normalized per ms).
    EXPECT_GE(post / 300.0, 0.9 * (pre / 200.0));

    // The outage was real: the dead PF dropped traffic...
    EXPECT_GT(tb.serverNic().deadPfDrops(), 0u);
    EXPECT_GT(tb.serverStack().lostBytes(), 0u);
    // ...the team driver failed the rings over and rebalanced back...
    EXPECT_EQ(tb.serverNic().pfKills(), 1u);
    EXPECT_EQ(tb.serverNic().pfRecoveries(), 1u);
    EXPECT_GE(tb.serverStack().pfFailovers(), 1u);
    EXPECT_GE(tb.serverStack().pfRebalances(), 1u);
    // ...each move through the queue plane's resteer...
    EXPECT_EQ(tb.serverStack().resteersPerformed(),
              tb.serverStack().pfFailovers() +
                  tb.serverStack().pfRebalances());
    // ...and every credit held by a lost frame was reclaimed.
    const os::Socket& cs = stream.clientSocket();
    const os::Socket& ss = stream.serverSocket();
    EXPECT_EQ(cs.reclaimedBytes, cs.lostTxBytes + ss.lostRxBytes);
    EXPECT_GE(tb.clientStack().retryReclaims(), 1u);
    EXPECT_TRUE(tb.injector()->done());
}

// ---------------------------------------------------------------------
// Zero-leak invariant: after a finite transfer spanning the blackout
// quiesces, the sender's flow-control window is exactly full again.
// ---------------------------------------------------------------------
TEST(FaultFailover, NoWindowCreditLeaksAfterQuiescence)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.pfKill(fromMs(3), 1).pfRecover(fromMs(8), 1);
    Testbed tb(cfg);
    auto server_t = tb.serverThread(1, 0);
    auto client_t = tb.clientThread(0);
    auto pair = tb.connect(server_t, client_t);

    const std::uint64_t msg = 32u << 10;
    const int reps = 2000; // ~64 MB: spans the 3-8 ms fault window
    auto sender = spawn([&]() -> Task<> {
        for (int i = 0; i < reps; ++i) {
            co_await pair.clientStack->send(pair.clientCtx,
                                            *pair.clientSock, msg);
        }
    });
    // The receiver drains forever; running it on node 1 is what steers
    // the flow onto a PF1 ring before the kill.
    auto receiver = spawn([&]() -> Task<> {
        for (;;) {
            co_await pair.serverStack->recv(pair.serverCtx,
                                            *pair.serverSock, 16u << 10);
        }
    });

    tb.runFor(fromMs(40));
    ASSERT_TRUE(sender.done());

    const os::Socket& cs = *pair.clientSock;
    const os::Socket& ss = *pair.serverSock;
    EXPECT_GT(cs.lostTxBytes + ss.lostRxBytes, 0u);
    EXPECT_EQ(cs.reclaimedBytes, cs.lostTxBytes + ss.lostRxBytes);
    // Every posted byte either reached the peer's socket buffer or had
    // its credit reclaimed: the window is full again — nothing leaked.
    EXPECT_EQ(cs.txWindow.count(),
              static_cast<std::int64_t>(cs.windowBytes));
}

// ---------------------------------------------------------------------
// Determinism: the same plan over the same testbed reproduces
// bit-identical event counts across independent runs.
// ---------------------------------------------------------------------
std::vector<std::uint64_t>
runCountersOnce()
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    chaos::StormSpec storm;
    storm.seed = 1234;
    storm.horizon = fromMs(150);
    storm.targets = {2, 4, 0};
    cfg.faults = chaos::storm(storm);
    Testbed tb(cfg);
    auto server_t = tb.serverThread(1, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(fromMs(200));

    return {
        stream.bytesDelivered(),
        tb.serverNic().deadPfDrops(),
        tb.serverNic().txAborts(),
        tb.serverNic().queueStallEvents(),
        tb.serverNic().pfKills(),
        tb.serverNic().pfRecoveries(),
        tb.serverStack().pfFailovers(),
        tb.serverStack().pfRebalances(),
        tb.serverStack().lostFrames(),
        tb.serverStack().lostBytes(),
        tb.serverStack().rxPacketsProcessed(),
        tb.clientStack().reclaimedBytes(),
        tb.clientStack().retryReclaims(),
        tb.injector()->applied(),
        tb.server().qpiDegradeEvents(),
    };
}

TEST(FaultFailover, IdenticalSeedGivesBitIdenticalCounts)
{
    const auto a = runCountersOnce();
    const auto b = runCountersOnce();
    EXPECT_EQ(a, b);
    EXPECT_GT(a[13], 0u); // the plan actually fired
}

// ---------------------------------------------------------------------
// Interrupt faults: dropped IRQs are recovered by the softirq watchdog
// and the stream keeps making progress.
// ---------------------------------------------------------------------
TEST(FaultFailover, DroppedIrqsRecoveredByWatchdog)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.irqDrop(fromMs(2), 3).irqRestore(fromMs(30));
    Testbed tb(cfg);
    auto server_t = tb.serverThread(1, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    tb.runFor(fromMs(30));
    const std::uint64_t during = stream.bytesDelivered();
    EXPECT_GT(during, 0u); // watchdog keeps the queue alive
    EXPECT_GT(tb.serverStack().irqsDropped(), 0u);
    EXPECT_GT(tb.serverStack().watchdogPolls(), 0u);

    tb.runFor(fromMs(20));
    EXPECT_GT(stream.bytesDelivered(), during);
}

} // namespace
} // namespace octo::fault
