/**
 * @file
 * The fault soaks: one body per datapath, each run with the continuous
 * Oracle re-checking its invariants every 500 us *during* the fault
 * activity, then the end-state leak invariants at quiescence. Zero
 * violations is the pass bar.
 *
 *  - The kernel body (TCP transfer through the interrupt stack) backs
 *    ChaosCampaign.KernelPresetSurvivesWithOracleGreen and FaultSoak.
 *    The Oracle watches window credits and reclaims on the socket
 *    pair, re-steer churn and delivery progress. At quiescence the
 *    sender's window is full again, every lost byte's credit was
 *    reclaimed, and sent == delivered + buffered + lost.
 *  - The polled body (closed-loop burst generator into a polled sink)
 *    backs ChaosCampaign.PolledPresetSurvivesWithOracleGreen and
 *    BypassFaultSoak. The Oracle watches both mempools, the Tx
 *    in-flight bounds, re-steer churn and sink progress. At quiescence
 *    every posted descriptor handed its completion back and each pool
 *    is within capacity with allocs - frees == in use.
 *
 * Progress is exempt while a server PF link is down or the transfer is
 * done. ChaosCampaign replays a correlated dual-PF kill plus a gray
 * episode on the monitored Ioctopus preset across ten seeds; the two
 * FaultSoak suites replay a 30 ms storm (every family, intensity 2)
 * under every server mode, unmonitored, across three seeds.
 *
 * Also the gray-failure acceptance pins: the differential prober
 * demotes a gray PF that stock HealthMonitor telemetry (link state,
 * bwFraction, AER) provably never sees.
 */
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bypass/plane.hpp"
#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "sim/task.hpp"

namespace octo::chaos {
namespace {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using fault::FaultPlan;
using sim::Task;
using sim::fromMs;
using sim::fromUs;
using sim::spawn;

/** The dual-kill + gray campaign, jittered by seed. Dual-PF episode
 *  heals by ~9 ms; the gray episode runs 12 -> 30 ms on the PF the
 *  seed picks; nothing is faulted after 30 ms. */
FaultPlan
campaignPlan(std::uint64_t seed)
{
    DualPfSpec d;
    d.firstKill = fromMs(3) + fromUs(200 * (seed % 5));
    d.stagger = fromMs(1) + fromUs(100 * (seed % 3));
    d.overlap = fromMs(2);
    d.recoverStagger = fromMs(1);
    FaultPlan plan = correlatedDualPf(d);
    grayEpisode(plan, fromMs(12), fromMs(30),
                static_cast<int>(seed % 2),
                /*delay_p=*/0.6, /*extra=*/fromUs(300),
                /*drop_p=*/0.1);
    mustValidate(plan, {2, -1, -1});
    return plan;
}

/** A storm over both server PFs and every queue that heals inside a
 *  30 ms horizon, so after it the system is nominally fault-free and
 *  the transfer can finish. */
FaultPlan
stormPlan(std::uint64_t seed)
{
    const TestbedConfig defaults;
    StormSpec spec;
    spec.seed = seed;
    spec.horizon = fromMs(30);
    spec.intensity = 2.0;
    spec.targets = {2, defaults.cal.nodes * defaults.cal.coresPerNode, 0};
    return storm(spec);
}

/** What a soak caller chooses; the checks are the body's. */
struct Soak
{
    ServerMode mode = ServerMode::Ioctopus;
    FaultPlan plan;
    /** HealthMonitor and DifferentialProber on the server plane. */
    bool monitored = false;
    /** Transfer length: 32 KiB messages (kernel) or 1 KiB frames
     *  (polled). */
    int count = 0;
    /** The transfer must be done by then; a 20 ms quiesce follows. */
    sim::Tick runFor = 0;
};

/** A server PF link is down: a legitimate reason for a flow to stall. */
std::function<bool()>
anyPfDown(Testbed& tb)
{
    return [&tb] {
        nic::NicDevice& nic = tb.serverNic();
        for (int p = 0; p < nic.functionCount(); ++p) {
            if (!nic.function(p).linkUp())
                return true;
        }
        return false;
    };
}

void
expectClean(const Oracle& oracle)
{
    EXPECT_EQ(oracle.violations(), 0u);
    for (const Violation& v : oracle.log())
        ADD_FAILURE() << v.invariant << " at "
                      << sim::toUs(v.at) << " us: " << v.snapshot;
    EXPECT_GT(oracle.checks(), 100u);
}

TestbedConfig
soakConfig(const Soak& soak)
{
    TestbedConfig cfg;
    cfg.mode = soak.mode;
    cfg.faults = soak.plan;
    cfg.healthMonitor = soak.monitored;
    cfg.diffProber = soak.monitored;
    return cfg;
}

/** The kernel-datapath soak body. */
void
kernelSoak(const Soak& soak)
{
    ASSERT_FALSE(soak.plan.empty());
    Testbed tb(soakConfig(soak));
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    auto pair = tb.connect(server_t, client_t);

    bool transfer_done = false;
    Oracle oracle(tb.sim());
    oracle.watchSocketPair(*pair.clientSock, *pair.serverSock);
    oracle.watchChurn(
        "resteers",
        [&tb] { return tb.serverStack().resteersPerformed(); }, 64);
    oracle.watchProgress(
        "delivered",
        [&pair] { return pair.serverSock->bytesDelivered; }, fromMs(10),
        [&transfer_done, down = anyPfDown(tb)] {
            return transfer_done || down();
        });
    oracle.start();

    const std::uint64_t msg = 32u << 10;
    auto sender = spawn([&]() -> Task<> {
        for (int i = 0; i < soak.count; ++i) {
            co_await pair.clientStack->send(pair.clientCtx,
                                            *pair.clientSock, msg);
        }
        transfer_done = true;
    });
    auto receiver = spawn([&]() -> Task<> {
        for (;;) {
            co_await pair.serverStack->recv(pair.serverCtx,
                                            *pair.serverSock, msg);
        }
    });

    tb.runFor(soak.runFor);
    ASSERT_TRUE(tb.injector()->done());
    ASSERT_TRUE(sender.done())
        << "transfer wedged: a fault outlived its recovery path";
    tb.runFor(fromMs(20)); // let retries and completions quiesce

    expectClean(oracle);

    const os::Socket& cs = *pair.clientSock;
    const os::Socket& ss = *pair.serverSock;
    // Zero-leak credit invariant: every credit held by a lost frame was
    // reclaimed, so the sender's window is exactly full again.
    EXPECT_EQ(cs.reclaimedBytes, cs.lostTxBytes + ss.lostRxBytes);
    EXPECT_EQ(cs.txWindow.count(),
              static_cast<std::int64_t>(cs.windowBytes));
    // Byte conservation: sent == delivered + still-buffered + lost.
    EXPECT_EQ(msg * static_cast<std::uint64_t>(soak.count),
              ss.bytesDelivered + ss.rxBytesAvail + cs.lostTxBytes +
                  ss.lostRxBytes);
    EXPECT_GT(ss.bytesDelivered, 0u);
}

/** The polled-datapath soak body. */
void
polledSoak(const Soak& soak)
{
    ASSERT_FALSE(soak.plan.empty());
    TestbedConfig cfg = soakConfig(soak);
    cfg.bypass = true;
    Testbed tb(cfg);
    nic::FiveTuple flow;
    flow.srcIp = Testbed::kServerIp;
    flow.dstIp = Testbed::kClientIp;
    flow.srcPort = 7000;
    flow.dstPort = 7001;
    flow.proto = nic::Proto::Udp;

    bypass::PollPort& tx =
        tb.serverPoll()->port(tb.server().coreOn(tb.workNode(), 0).id());
    bypass::PollPort& sink = tb.clientPoll()->port(0);
    tb.clientPoll()->steerFlow(flow, 0);

    constexpr int kDepth = 256;
    constexpr int kBurst = 32;
    sim::Semaphore inflight(tb.sim(), kDepth);

    bool transfer_done = false;
    Oracle oracle(tb.sim());
    oracle.watchMempool("server", tb.serverPoll()->mempool(),
                        cfg.cal.nodes);
    oracle.watchMempool("client", tb.clientPoll()->mempool(),
                        cfg.cal.nodes);
    oracle.watchChurn(
        "resteers",
        [&tb] { return tb.serverPoll()->resteersPerformed(); }, 64);
    oracle.watchProgress("sunk", [&sink] { return sink.rxFrames(); },
                         fromMs(10),
                         [&transfer_done, down = anyPfDown(tb)] {
                             return transfer_done || down();
                         });
    oracle.addInvariant("tx_inflight_bounds", [&]() -> std::string {
        if (inflight.count() < 0 || inflight.count() > kDepth)
            return "inflight credits " +
                   std::to_string(inflight.count()) +
                   " outside [0, " + std::to_string(kDepth) + "]";
        return {};
    });
    oracle.start();

    auto producer = spawn([&]() -> Task<> {
        int posted = 0;
        while (posted < soak.count) {
            int n = 0;
            while (n < kBurst && posted + n < soak.count &&
                   inflight.tryAcquire())
                ++n;
            if (n > 0) {
                co_await tx.txBurst(flow, 1024, n, &inflight);
                posted += n;
            }
            co_await tx.harvestTx(2 * kBurst);
        }
        // Reap the stragglers: every posted descriptor must hand its
        // completion back, aborted or not.
        while (inflight.count() < kDepth)
            co_await tx.harvestTx(2 * kBurst);
        transfer_done = true;
    });
    auto sinkT = spawn([&]() -> Task<> {
        std::vector<bypass::RxPacket> pkts(kBurst);
        for (;;) {
            const int n = co_await sink.rxBurst(pkts.data(), kBurst);
            for (int i = 0; i < n; ++i)
                sink.freePacket(pkts[i]);
        }
    });

    tb.runFor(soak.runFor);
    ASSERT_TRUE(tb.injector()->done());
    ASSERT_TRUE(producer.done())
        << "polled Tx wedged: a fault outlived its recovery path";
    tb.runFor(fromMs(20)); // quiesce

    expectClean(oracle);

    // Zero leaked Tx completions: every posted descriptor handed its
    // completion back (error completions included).
    EXPECT_EQ(inflight.count(), static_cast<std::int64_t>(kDepth));

    // Buffer conservation at quiescence, re-checked from the raw
    // counters: what the pools handed out and never got back is
    // exactly what sits in the Rx rings and nothing more.
    for (auto* plane : {tb.serverPoll(), tb.clientPoll()}) {
        const bypass::Mempool& pool = plane->mempool();
        std::uint64_t in_use = 0;
        for (int n = 0; n < cfg.cal.nodes; ++n) {
            EXPECT_LE(pool.inUse(n), pool.capacity(n));
            in_use += pool.inUse(n);
        }
        EXPECT_EQ(pool.allocs() - pool.frees(), in_use);
    }
    EXPECT_GT(sink.rxFrames(), 0u);
}

class ChaosCampaign : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ChaosCampaign, KernelPresetSurvivesWithOracleGreen)
{
    kernelSoak({.plan = campaignPlan(GetParam()),
                .monitored = true,
                .count = 3000, // ~96 MB: spans the campaign
                .runFor = fromMs(80)});
}

TEST_P(ChaosCampaign, PolledPresetSurvivesWithOracleGreen)
{
    polledSoak({.plan = campaignPlan(GetParam()),
                .monitored = true,
                .count = 60000, // ~60 MB
                .runFor = fromMs(80)});
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, ChaosCampaign,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 7ull,
                                           11ull, 13ull, 23ull, 42ull,
                                           97ull));

class FaultSoak
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(FaultSoak, RandomStressLeaksNothingAtQuiescence)
{
    kernelSoak({.mode = static_cast<ServerMode>(std::get<0>(GetParam())),
                .plan = stormPlan(std::get<1>(GetParam())),
                .count = 6000, // ~192 MB: spans the whole fault horizon
                .runFor = fromMs(200)});
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, FaultSoak,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(ServerMode::Local),
                          static_cast<int>(ServerMode::Remote),
                          static_cast<int>(ServerMode::Ioctopus)),
        ::testing::Values(11ull, 23ull, 42ull)));

class BypassFaultSoak
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(BypassFaultSoak, RandomStressLeaksNoBuffersOrCompletions)
{
    polledSoak({.mode = static_cast<ServerMode>(std::get<0>(GetParam())),
                .plan = stormPlan(std::get<1>(GetParam())),
                .count = 40000, // 1 KiB frames, ~40 MB
                .runFor = fromMs(200)});
}

INSTANTIATE_TEST_SUITE_P(
    PolledModesAndSeeds, BypassFaultSoak,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(ServerMode::Local),
                          static_cast<int>(ServerMode::Remote),
                          static_cast<int>(ServerMode::Ioctopus)),
        ::testing::Values(11ull, 23ull, 42ull)));

// ---------------------------------------------------------------------
// Gray-failure detection: the prober sees what telemetry cannot.
// ---------------------------------------------------------------------

TEST(GrayFailure, StockTelemetryMissesGrayPf)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    FaultPlan plan;
    grayEpisode(plan, fromMs(5), fromMs(45), 1, 0.7, fromUs(400), 0.2);
    cfg.faults = plan;
    cfg.healthMonitor = true; // monitor on, prober off

    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    auto pair = tb.connect(server_t, client_t);
    auto sender = spawn([&]() -> Task<> {
        for (int i = 0; i < 2000; ++i) {
            co_await pair.clientStack->send(pair.clientCtx,
                                            *pair.clientSock, 32u << 10);
        }
    });
    auto receiver = spawn([&]() -> Task<> {
        for (;;) {
            co_await pair.serverStack->recv(pair.serverCtx,
                                            *pair.serverSock,
                                            32u << 10);
        }
    });

    tb.runFor(fromMs(40));

    // The PF is gray right now — and every stock signal is nominal.
    const pcie::PciFunction& pf = tb.serverNic().function(1);
    ASSERT_TRUE(pf.grayFaulted());
    EXPECT_TRUE(pf.linkUp());
    EXPECT_DOUBLE_EQ(pf.bwFraction(), 1.0);
    EXPECT_EQ(pf.correctableErrors() + pf.uncorrectableErrors(), 0u);
    // So the monitor, watching exactly those signals, never reacts.
    EXPECT_EQ(tb.monitor()->state(1), health::HealthState::Healthy);
    EXPECT_EQ(tb.monitor()->externalDemotions(), 0u);
}

TEST(GrayFailure, DifferentialProberDemotesTheOutlierSibling)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    FaultPlan plan;
    grayEpisode(plan, fromMs(5), fromMs(45), 1, 0.7, fromUs(400), 0.2);
    cfg.faults = plan;
    cfg.healthMonitor = true;
    cfg.diffProber = true;

    Testbed tb(cfg);
    tb.runFor(fromMs(4));
    ASSERT_EQ(tb.prober()->demotions(), 0u)
        << "prober fired before the gray fault even started";

    tb.runFor(fromMs(26)); // t = 30 ms, gray since 5 ms
    EXPECT_GE(tb.prober()->demotions(), 1u);
    EXPECT_GE(tb.monitor()->externalDemotions(), 1u);
    // The gray PF may flap Failed -> probation -> re-demoted (a gray
    // link *passes* a binary liveness probe), but the healthy sibling
    // must never be touched.
    EXPECT_EQ(tb.monitor()->state(0), health::HealthState::Healthy)
        << "healthy sibling wrongly demoted";

    // After the gray heals, the monitor's normal probation ladder
    // brings the PF back without external help — even from the far end
    // of the relapse backoff schedule (capped at 64 ms).
    tb.runFor(fromMs(170)); // t = 200 ms, gray healed at 45 ms
    EXPECT_NE(tb.monitor()->state(1), health::HealthState::Failed)
        << "demoted PF never recovered through probation";
    const std::uint64_t settled = tb.prober()->demotions();
    tb.runFor(fromMs(20));
    EXPECT_EQ(tb.prober()->demotions(), settled)
        << "prober keeps demoting a healed PF";
}

} // namespace
} // namespace octo::chaos
