/**
 * @file
 * Steering-plane tests on the Ioctopus testbed: queue-grain verdicts
 * move exactly the sick queue (stall and poison) and bring it home on
 * recovery; the resteer epoch guard drops stale rebinds under churn;
 * administrative drain evacuates an endpoint with no fault recorded;
 * and the health-aware Tx pick routes senders off a down-weighted PF.
 * The epoch-guard and queue-drain cases also run on the polled
 * datapath (the `Poll…` tests), which shares nic::QueuePlane with the
 * kernel stack; the polled queue-stall case is
 * BypassPresets.QueueStallEvacuatesExactlyTheSickPolledQueue.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "health/score.hpp"
#include "steer/endpoint.hpp"

namespace octo::steer {
namespace {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using health::HealthState;
using sim::fromMs;

/** Ioctopus testbed on the kernel stack, or with @p poll on the
 *  polled datapath. */
TestbedConfig
ioctopusCfg(bool poll = false)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.bypass = poll;
    return cfg;
}

TestbedConfig
monitoredCfg(bool poll = false)
{
    TestbedConfig cfg = ioctopusCfg(poll);
    cfg.healthMonitor = true;
    return cfg;
}

/** Every queue except @p sick must sit on its home PF. */
void
expectSiblingsHome(Testbed& tb, int sick)
{
    for (int q = 0; q < tb.serverNic().queueCount(); ++q) {
        if (q == sick)
            continue;
        EXPECT_EQ(tb.serverNic().queue(q).pf,
                  tb.serverNic().queue(q).homePf)
            << "healthy sibling queue " << q << " was moved";
    }
}

// ---------------------------------------------------------------------
// A stalled queue is evacuated alone — the PF verdict stays Healthy,
// healthy siblings keep their binding — and returns home after the
// stall clears and probation passes.
// ---------------------------------------------------------------------
TEST(SteerPlane, QueueStallMovesOnlyTheSickQueue)
{
    TestbedConfig cfg = monitoredCfg();
    cfg.faults.queueStall(fromMs(40), 0, fromMs(30));
    Testbed tb(cfg);
    const nic::QueuePlane& plane = tb.serverPlane();

    // Mid-stall, after detection (2 samples) and the re-steer settled.
    tb.runFor(fromMs(55));
    ASSERT_NE(tb.monitor(), nullptr);
    EXPECT_EQ(tb.monitor()->queueState(0), HealthState::Degraded);
    EXPECT_EQ(tb.monitor()->state(0), HealthState::Healthy)
        << "a single queue stall must not tar the whole PF";
    EXPECT_TRUE(tb.monitor()->queueSteeredAway(0));
    EXPECT_EQ(tb.serverNic().queue(0).pf, &tb.serverNic().function(1));
    expectSiblingsHome(tb, 0);
    EXPECT_EQ(plane.resteersPerformed(), 1u)
        << "exactly the sick queue re-steers";

    // Stall expired at 70 ms: probation, promotion, and the way home.
    tb.runFor(fromMs(30));
    EXPECT_EQ(tb.monitor()->queueState(0), HealthState::Healthy);
    EXPECT_FALSE(tb.monitor()->queueSteeredAway(0));
    EXPECT_EQ(tb.serverNic().queue(0).pf, tb.serverNic().queue(0).homePf);
    EXPECT_EQ(plane.resteersPerformed(), 2u)
        << "one move out, one move home";
}

// ---------------------------------------------------------------------
// Same granularity for a poisoned buffer pool: completions keep
// flowing, but the per-queue impairment evacuates the queue alone.
// ---------------------------------------------------------------------
TEST(SteerPlane, QueuePoisonMovesOnlyTheSickQueue)
{
    TestbedConfig cfg = monitoredCfg();
    cfg.faults.queuePoison(fromMs(40), 2, fromMs(30));
    Testbed tb(cfg);

    tb.runFor(fromMs(55));
    ASSERT_NE(tb.monitor(), nullptr);
    EXPECT_EQ(tb.serverNic().queuePoisonEvents(), 1u);
    EXPECT_EQ(tb.monitor()->queueState(2), HealthState::Degraded);
    EXPECT_EQ(tb.monitor()->state(0), HealthState::Healthy);
    EXPECT_EQ(tb.serverNic().queue(2).pf, &tb.serverNic().function(1));
    expectSiblingsHome(tb, 2);
    EXPECT_EQ(tb.serverStack().resteersPerformed(), 1u);

    tb.runFor(fromMs(30));
    EXPECT_EQ(tb.monitor()->queueState(2), HealthState::Healthy);
    EXPECT_EQ(tb.serverNic().queue(2).pf, tb.serverNic().queue(2).homePf);
    EXPECT_EQ(tb.serverStack().resteersPerformed(), 2u);
}

// ---------------------------------------------------------------------
// Verdict churn: a newer re-steer for the same queue supersedes an
// in-flight one, so a stale rebind can never land after the fact.
// ---------------------------------------------------------------------
void
expectEpochGuardDropsStaleRebinds(bool poll)
{
    Testbed tb(ioctopusCfg(poll));
    nic::QueuePlane& plane = tb.serverPlane();

    tb.runFor(fromMs(1));
    plane.resteerQueue(0, 1);
    tb.runFor(fromMs(5));
    ASSERT_EQ(tb.serverNic().queue(0).pf, &tb.serverNic().function(1));
    ASSERT_EQ(plane.resteersPerformed(), 1u);

    // Churn: steer home, then immediately back to PF1 before the first
    // rebind's kernel-worker delay elapses. The newest verdict (PF1 ==
    // current binding) wins; the stale rebind to PF0 must be dropped.
    plane.resteerQueue(0, 0);
    plane.resteerQueue(0, 1);
    tb.runFor(fromMs(10));
    EXPECT_EQ(tb.serverNic().queue(0).pf, &tb.serverNic().function(1))
        << "a superseded rebind landed after its successor";
    EXPECT_EQ(plane.resteersPerformed(), 1u);
}

TEST(SteerPlane, ResteerEpochGuardDropsStaleRebinds)
{
    expectEpochGuardDropsStaleRebinds(false);
}

TEST(SteerPlane, PollResteerEpochGuardDropsStaleRebinds)
{
    expectEpochGuardDropsStaleRebinds(true);
}

// ---------------------------------------------------------------------
// Administrative drain, PF grain: effective weight drops to zero and
// every queue homed on the PF is evacuated — with no fault recorded —
// until undrain() brings them home.
// ---------------------------------------------------------------------
TEST(SteerPlane, AdminDrainPfEvacuatesAndUndrainReturnsHome)
{
    TestbedConfig cfg = monitoredCfg();
    Testbed tb(cfg);
    tb.runFor(fromMs(10));
    ASSERT_NE(tb.monitor(), nullptr);

    const int queues = tb.serverNic().queueCount();
    int homed0 = 0;
    for (int q = 0; q < queues; ++q) {
        if (tb.serverNic().queue(q).homePf->id() == 0)
            ++homed0;
    }
    ASSERT_GT(homed0, 0);

    tb.monitor()->drainEndpoint(Endpoint::ofPf(0));
    EXPECT_DOUBLE_EQ(tb.monitor()->weight(0), 0.0);
    EXPECT_EQ(tb.monitor()->state(0), HealthState::Healthy)
        << "maintenance is not a fault";
    EXPECT_TRUE(tb.monitor()->drained(Endpoint::ofPf(0)));

    tb.runFor(fromMs(10));
    for (int q = 0; q < queues; ++q) {
        if (tb.serverNic().queue(q).homePf->id() == 0) {
            EXPECT_EQ(tb.serverNic().queue(q).pf->id(), 1)
                << "queue " << q << " not evacuated";
        }
    }
    EXPECT_EQ(tb.serverStack().resteersPerformed(),
              static_cast<std::uint64_t>(homed0));
    EXPECT_GE(tb.serverStack().adminDrains(), 1u);

    tb.monitor()->undrain(Endpoint::ofPf(0));
    EXPECT_GT(tb.monitor()->weight(0), 0.0);
    tb.runFor(fromMs(10));
    for (int q = 0; q < queues; ++q) {
        EXPECT_EQ(tb.serverNic().queue(q).pf,
                  tb.serverNic().queue(q).homePf);
    }
}

// ---------------------------------------------------------------------
// Administrative drain, queue grain: one queue leaves, siblings stay.
// ---------------------------------------------------------------------
void
expectAdminDrainQueueMovesOnlyThatQueue(bool poll)
{
    Testbed tb(monitoredCfg(poll));
    tb.runFor(fromMs(10));
    ASSERT_NE(tb.monitor(), nullptr);

    tb.monitor()->drainEndpoint(Endpoint::ofQueue(0, 3));
    tb.runFor(fromMs(10));
    EXPECT_TRUE(tb.monitor()->queueSteeredAway(3));
    EXPECT_EQ(tb.serverNic().queue(3).pf, &tb.serverNic().function(1));
    expectSiblingsHome(tb, 3);
    EXPECT_EQ(tb.monitor()->queueState(3), HealthState::Healthy);
    EXPECT_EQ(tb.serverPlane().adminDrains(), 1u);
    EXPECT_EQ(tb.serverPlane().resteersPerformed(), 1u);

    tb.monitor()->undrain(Endpoint::ofQueue(0, 3));
    tb.runFor(fromMs(10));
    EXPECT_FALSE(tb.monitor()->queueSteeredAway(3));
    EXPECT_EQ(tb.serverNic().queue(3).pf, tb.serverNic().queue(3).homePf);
}

TEST(SteerPlane, AdminDrainQueueMovesOnlyThatQueue)
{
    expectAdminDrainQueueMovesOnlyThatQueue(false);
}

TEST(SteerPlane, PollAdminDrainQueueMovesOnlyThatQueue)
{
    expectAdminDrainQueueMovesOnlyThatQueue(true);
}

// ---------------------------------------------------------------------
// Health-aware Tx/XPS pick: with PF0 down-weighted (and its queues not
// yet rebound — the Tx pick is what bridges the gap until the Rx-plane
// verdict moves them), a deterministic share of node-0 senders posts to
// a queue behind the strong PF instead of the raw XPS queue. At equal
// weights the raw pick always stands.
// ---------------------------------------------------------------------
TEST(SteerPlane, HealthAwareTxRoutesAroundWeakPf)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    Testbed tb(cfg);
    os::NetStack& st = tb.serverStack();
    const int per_node = tb.serverNic().queueCount() / 2;

    // Weighted mode, equal weights: every pick is the raw XPS queue.
    st.setWeightedSteering(true);
    st.applyPfWeights({63.0, 63.0});
    for (int c = 0; c < per_node; ++c)
        EXPECT_EQ(st.queueForCore(c), c);
    EXPECT_EQ(st.txQueueOverrides(), 0u);

    // PF0 drops to its x2 fraction: the 0.25 share keeps at most
    // keepSlot's quota of the 28 queues on PF0, so several node-0
    // senders must be redirected to a PF1-bound queue.
    st.applyPfWeights({63.0 * 0.25, 63.0});
    int overridden = 0;
    for (int c = 0; c < per_node; ++c) {
        const int q = st.queueForCore(c);
        if (q == c)
            continue;
        ++overridden;
        EXPECT_EQ(tb.serverNic().queue(q).pf->id(), 1)
            << "override for core " << c
            << " picked a queue on the weak PF";
    }
    EXPECT_GT(overridden, 0);
    EXPECT_EQ(st.txQueueOverrides(), static_cast<std::uint64_t>(overridden));

    // Deterministic: the same cores get the same picks on a second pass.
    for (int c = 0; c < per_node; ++c) {
        const int first = st.queueForCore(c);
        EXPECT_EQ(st.queueForCore(c), first);
    }

    // Node-1 senders already post behind the strong PF: untouched.
    for (int c = per_node; c < tb.serverNic().queueCount(); ++c)
        EXPECT_EQ(st.queueForCore(c), c);

    // Recovery: weights equal again, the raw pick stands and the
    // override counter stops moving.
    const std::uint64_t settled = st.txQueueOverrides();
    st.applyPfWeights({63.0, 63.0});
    for (int c = 0; c < per_node; ++c)
        EXPECT_EQ(st.queueForCore(c), c);
    EXPECT_EQ(st.txQueueOverrides(), settled);
}

} // namespace
} // namespace octo::steer
