/**
 * @file
 * Polled-datapath unit tests: burst semantics of rxBurst/txBurst,
 * mempool exhaustion and leak-free buffer recycling, and the
 * zero-perturbation discipline (identical packet flow with telemetry
 * on and off).
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "common.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace octo::bypass {
namespace {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::fromMs;
using sim::fromUs;

/** A small two-cores-per-node bypass testbed config. */
TestbedConfig
smallCfg(ServerMode mode = ServerMode::Local)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.bypass = true;
    cfg.cal.coresPerNode = 2;
    return cfg;
}

// ---------------------------------------------------------------------
// Mempool alone: bounded per-node arenas, visible exhaustion, recycle.
// ---------------------------------------------------------------------
TEST(BypassMempool, ExhaustsAtCapacityAndRecycles)
{
    sim::Simulator sim;
    Mempool pool(sim, "t");
    pool.addCapacity(0, 4);
    pool.addCapacity(1, 2);

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(pool.tryAlloc(0));
    EXPECT_FALSE(pool.tryAlloc(0)) << "alloc beyond node capacity";
    EXPECT_EQ(pool.exhausted(), 1u);
    EXPECT_TRUE(pool.tryAlloc(1)) << "node arenas are independent";
    EXPECT_EQ(pool.inUse(0), 4u);

    pool.free(0);
    EXPECT_TRUE(pool.tryAlloc(0)) << "freed buffer not reusable";
    EXPECT_EQ(pool.allocs(), 6u);
    EXPECT_EQ(pool.frees(), 1u);
}

// ---------------------------------------------------------------------
// Burst semantics: rxBurst returns at most the requested burst, drains
// backlog across calls, and reports empty polls distinctly.
// ---------------------------------------------------------------------
TEST(BypassPort, RxBurstClampsDrainsAndCountsEmptyPolls)
{
    TestbedConfig cfg = smallCfg();
    Testbed tb(cfg);
    PollPlane& sp = *tb.serverPoll();
    sp.steerFlow(testFlow(), 0);
    PollPort& rx = sp.port(0);
    PollPort& tx = tb.clientPoll()->port(0);

    auto t = sim::spawn([&]() -> sim::Task<> {
        // Post 10 frames, give them time to land in the Rx ring.
        co_await tx.txBurst(testFlow(), 64, 10, nullptr);
        co_await sim::delay(tb.sim(), fromUs(100));

        RxPacket pkts[16];
        const int first = co_await rx.rxBurst(pkts, 4);
        EXPECT_EQ(first, 4) << "burst cap ignored";
        int total = first;
        for (int i = 0; i < first; ++i) {
            EXPECT_EQ(pkts[i].frame.payloadBytes, 64u);
            rx.freePacket(pkts[i]);
        }
        while (total < 10) {
            const int n = co_await rx.rxBurst(pkts, 16);
            EXPECT_GT(n, 0) << "backlog lost";
            if (n == 0)
                break;
            for (int i = 0; i < n; ++i)
                rx.freePacket(pkts[i]);
            total += n;
        }
        EXPECT_EQ(total, 10);

        const std::uint64_t empties = rx.emptyPolls();
        const int none = co_await rx.rxBurst(pkts, 16);
        EXPECT_EQ(none, 0);
        EXPECT_EQ(rx.emptyPolls(), empties + 1);
        co_await tx.harvestTx(16);
    });
    tb.sim().run();
    EXPECT_EQ(rx.rxFrames(), 10u);
    EXPECT_EQ(rx.rxBytes(), 640u);
}

// ---------------------------------------------------------------------
// Zero-copy discipline: buffers held by the application drain the
// mempool; exhaustion stops ring refills (pendingRefill) instead of
// leaking; freeing recovers everything.
// ---------------------------------------------------------------------
TEST(BypassPort, MempoolExhaustionDefersRefillsAndFreeRecovers)
{
    TestbedConfig cfg = smallCfg();
    // One port per node: the node-0 arena is exactly this port's ring
    // fill plus its 4-buffer headroom, so holding the whole ring must
    // exhaust it.
    cfg.cal.coresPerNode = 1;
    cfg.rxRingEntries = 8;
    cfg.bypassCfg.extraBufsPerPort = 4;
    Testbed tb(cfg);
    PollPlane& sp = *tb.serverPoll();
    sp.steerFlow(testFlow(), 0);
    PollPort& rx = sp.port(0);
    PollPort& tx = tb.clientPoll()->port(0);
    Mempool& pool = sp.mempool();
    const std::uint64_t fill = pool.inUse(0); // ring fill at start

    auto t = sim::spawn([&]() -> sim::Task<> {
        co_await tx.txBurst(testFlow(), 64, 8, nullptr);
        co_await sim::delay(tb.sim(), fromUs(100));

        // Harvest everything and hold the buffers: refills succeed
        // until the 4-buffer headroom runs dry, then defer.
        std::vector<RxPacket> held(8);
        int got = 0;
        while (got < 8) {
            const int n =
                co_await rx.rxBurst(held.data() + got, 8 - got);
            if (n == 0)
                break;
            got += n;
        }
        EXPECT_EQ(got, 8);
        EXPECT_EQ(rx.pendingRefill(), 4u)
            << "refills past the headroom must defer, not alloc";
        EXPECT_GE(pool.exhausted(), 4u);

        // Freeing returns every buffer and satisfies deferred refills.
        for (int i = 0; i < got; ++i)
            rx.freePacket(held[i]);
        EXPECT_EQ(rx.pendingRefill(), 0u);
        EXPECT_EQ(pool.inUse(0), fill)
            << "buffers leaked across harvest/free cycle";
        co_await tx.harvestTx(16);
    });
    tb.sim().run();
    EXPECT_EQ(pool.allocs() - pool.frees(),
              static_cast<std::uint64_t>(pool.inUse(0) + pool.inUse(1)));
}

// ---------------------------------------------------------------------
// Tx burst semantics: descriptors count once completed, the completion
// semaphore releases exactly per reaped descriptor.
// ---------------------------------------------------------------------
TEST(BypassPort, TxBurstCompletionsReleaseSemaphorePerDescriptor)
{
    TestbedConfig cfg = smallCfg();
    Testbed tb(cfg);
    tb.clientPoll()->steerFlow(testFlow().reversed(), 0);
    PollPort& tx = tb.serverPoll()->port(0);
    PollPort& sink = tb.clientPoll()->port(0);

    auto sinkT = sinkLoop(sink);
    auto t = sim::spawn([&]() -> sim::Task<> {
        sim::Semaphore done(tb.sim(), 0);
        const int posted = co_await tx.txBurst(testFlow().reversed(),
                                               256, 12, &done);
        EXPECT_EQ(posted, 12);
        int reaped = 0;
        while (reaped < 12) {
            const int n = co_await tx.harvestTx(4);
            EXPECT_LE(n, 4) << "harvest burst cap ignored";
            reaped += n;
        }
        EXPECT_EQ(static_cast<int>(done.count()), 12)
            << "one release per completed descriptor";
        EXPECT_EQ(tx.txReaped(), 12u);
    });
    tb.runFor(fromMs(1));
    EXPECT_EQ(tx.txFrames(), 12u);
    EXPECT_EQ(tx.txBytes(), 12u * 256u);
}

// ---------------------------------------------------------------------
// Zero perturbation: the same workload with the full observability
// stack attached (hub plus the health monitor the benches add when
// sampling) delivers bit-identical packet counts and timing.
// ---------------------------------------------------------------------
TEST(BypassPlane, TelemetryOnOffDoesNotPerturbTheDatapath)
{
    struct Snapshot
    {
        std::uint64_t rxFrames, rxBytes, txFrames, empties, qpi;
    };
    const auto run = [](bool with_hub) -> Snapshot {
        obs::Hub hub;
        TestbedConfig cfg;
        cfg.mode = ServerMode::Ioctopus;
        cfg.bypass = true;
        cfg.cal.coresPerNode = 2;
        if (with_hub) {
            cfg.hub = &hub;
            // What bench::obsBegin adds when sampling an Ioctopus run.
            cfg.healthMonitor = true;
        }
        Testbed tb(cfg);
        EXPECT_EQ(tb.monitor() != nullptr, with_hub);
        BypassStream stream(tb, 2); // server port on node 1
        tb.runFor(fromMs(5));
        PollPlane& sp = *tb.serverPoll();
        return {sp.rxFramesTotal(), sp.rxBytesTotal(),
                tb.clientPoll()->txFramesTotal(), sp.emptyPollsTotal(),
                tb.server().qpiBytesTotal()};
    };

    const Snapshot off = run(false);
    const Snapshot on = run(true);
    EXPECT_GT(off.rxFrames, 0u);
    EXPECT_EQ(off.rxFrames, on.rxFrames);
    EXPECT_EQ(off.rxBytes, on.rxBytes);
    EXPECT_EQ(off.txFrames, on.txFrames);
    EXPECT_EQ(off.empties, on.empties);
    EXPECT_EQ(off.qpi, on.qpi);
}

} // namespace
} // namespace octo::bypass
