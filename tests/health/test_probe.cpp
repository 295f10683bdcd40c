/**
 * @file
 * Probation probe-flow tests (probePromotion): instead of promoting a
 * recovering PF on clean telemetry alone, the monitor sends a tiny RR
 * probe through it and promotes only on success. A failed probe
 * re-demotes — with backoff escalation — without any real flow having
 * touched the path.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "fault/plan.hpp"
#include "health/monitor.hpp"
#include "health/score.hpp"
#include "sim/simulator.hpp"
#include "steer/endpoint.hpp"
#include "steer/plane.hpp"

namespace octo::health {
namespace {

using sim::fromMs;
using sim::fromUs;
using sim::Tick;

constexpr double kNominal = 63.0;

// ---------------------------------------------------------------------
// HealthScore unit: the probe gate replaces clean-streak promotion.
// ---------------------------------------------------------------------

/** Drive a score into Probation with a pending probe. */
void
driveToProbePending(HealthScore& score, const HealthConfig& cfg,
                    Tick* now)
{
    const auto feed = [&](int count, double bw) {
        for (int i = 0; i < count; ++i) {
            *now += cfg.samplePeriod;
            HealthSample s;
            s.now = *now;
            s.bwFraction = bw;
            score.observe(s);
        }
    };
    feed(cfg.enterSamples, 0.2); // degrade
    ASSERT_EQ(score.state(), HealthState::Degraded);
    *now += cfg.backoffMax;      // outwait any backoff
    feed(1, 1.0);                // heal attempt -> Probation
    ASSERT_EQ(score.state(), HealthState::Probation);
    feed(cfg.exitSamples, 1.0);  // clean streak completes
}

TEST(ProbeScore, CleanStreakArmsProbeInsteadOfPromoting)
{
    HealthConfig cfg;
    cfg.probePromotion = true;
    HealthScore score(cfg, kNominal);
    Tick now = 0;
    driveToProbePending(score, cfg, &now);
    EXPECT_EQ(score.state(), HealthState::Probation)
        << "clean telemetry alone must not promote";
    EXPECT_TRUE(score.probePending());

    EXPECT_TRUE(score.probeSucceeded(now));
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal);
    EXPECT_FALSE(score.probePending());
}

TEST(ProbeScore, FailedProbeReDemotesWithBackoffEscalation)
{
    HealthConfig cfg;
    cfg.probePromotion = true;
    HealthScore score(cfg, kNominal);
    Tick now = 0;
    driveToProbePending(score, cfg, &now);
    const Tick backoff_before = score.backoff();

    EXPECT_TRUE(score.probeFailed(now));
    EXPECT_EQ(score.state(), HealthState::Failed);
    EXPECT_DOUBLE_EQ(score.weight(), 0.0);
    EXPECT_GE(score.backoff(), backoff_before)
        << "a failed probe is a relapse; backoff must not shrink";
    EXPECT_FALSE(score.probePending());
}

TEST(ProbeScore, ProbeVerdictsAreNoOpsWhenNotPending)
{
    HealthConfig cfg;
    cfg.probePromotion = true;
    HealthScore score(cfg, kNominal);
    EXPECT_FALSE(score.probeSucceeded(fromMs(1)));
    EXPECT_FALSE(score.probeFailed(fromMs(1)));
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_EQ(score.transitions(), 0u);
}

TEST(ProbeScore, RelapseWhileProbeInFlightVoidsTheVerdict)
{
    HealthConfig cfg;
    cfg.probePromotion = true;
    HealthScore score(cfg, kNominal);
    Tick now = 0;
    driveToProbePending(score, cfg, &now);

    // The link flaps while the probe is in flight: the state machine
    // moves on, and the late probe result must not resurrect it.
    now += cfg.samplePeriod;
    HealthSample bad;
    bad.now = now;
    bad.linkUp = false;
    score.observe(bad);
    ASSERT_EQ(score.state(), HealthState::Failed);
    EXPECT_FALSE(score.probeSucceeded(now));
    EXPECT_EQ(score.state(), HealthState::Failed);
}

// ---------------------------------------------------------------------
// Monitor + scripted plane: the full probe loop without a testbed.
// ---------------------------------------------------------------------

/** A steerable plane whose telemetry and probe verdict are scripted. */
class FakePlane : public steer::SteerablePlane
{
  public:
    explicit FakePlane(sim::Simulator& sim, int pfs = 2) : sim_(sim)
    {
        bw_.assign(pfs, 1.0);
    }

    const char* planeName() const override { return "fake"; }
    sim::Simulator& planeSim() override { return sim_; }
    int pfCount() const override { return static_cast<int>(bw_.size()); }
    int steerableQueueCount() const override { return 0; }

    steer::EndpointTelemetry
    telemetry(const steer::Endpoint& ep) const override
    {
        steer::EndpointTelemetry t;
        t.bwFraction = bw_.at(ep.pf);
        t.nominalGbps = kNominal;
        t.node = ep.pf;
        return t;
    }

    void
    resteer(const steer::Endpoint&, int) override
    {
        ++resteers_;
    }
    void drain(const steer::Endpoint&) override {}
    std::uint64_t resteersPerformed() const override { return resteers_; }

    sim::Task<bool>
    probe(int) override
    {
        ++probeCalls_;
        co_await sim::delay(sim_, fromUs(50)); // probe RTT
        co_return probeOk_;
    }

    sim::Simulator& sim_;
    std::vector<double> bw_;
    bool probeOk_ = true;
    std::uint64_t probeCalls_ = 0;
    std::uint64_t resteers_ = 0;
};

HealthConfig
probeCfg()
{
    HealthConfig cfg;
    cfg.probePromotion = true;
    return cfg;
}

TEST(ProbeMonitor, PromotionWaitsForAPassingProbe)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    HealthMonitor mon(plane, probeCfg());
    mon.start();

    sim.schedule(fromMs(5), [&] { plane.bw_[0] = 0.2; });
    sim.schedule(fromMs(10), [&] { plane.bw_[0] = 1.0; });

    sim.runUntil(fromMs(8));
    ASSERT_EQ(mon.state(0), HealthState::Degraded);

    sim.runUntil(fromMs(30));
    EXPECT_EQ(mon.state(0), HealthState::Healthy);
    EXPECT_GE(mon.probesSent(), 1u);
    EXPECT_GE(mon.probesPassed(), 1u);
    EXPECT_EQ(mon.probesFailed(), 0u);
    EXPECT_EQ(plane.probeCalls_, mon.probesSent());
}

TEST(ProbeMonitor, FailedProbeReDemotesWithoutTouchingRealFlows)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    plane.probeOk_ = false;
    HealthMonitor mon(plane, probeCfg());
    mon.start();

    sim.schedule(fromMs(5), [&] { plane.bw_[0] = 0.2; });
    sim.schedule(fromMs(10), [&] { plane.bw_[0] = 1.0; });
    // The path starts answering probes at 30 ms.
    sim.schedule(fromMs(30), [&] { plane.probeOk_ = true; });

    sim.runUntil(fromMs(25));
    EXPECT_GE(mon.probesFailed(), 1u);
    EXPECT_NE(mon.state(0), HealthState::Healthy)
        << "a failed probe must block promotion";
    EXPECT_LT(mon.weight(0), kNominal)
        << "re-demotion must keep the weight reduced";
    EXPECT_EQ(plane.resteers_, 0u)
        << "probe traffic must not re-steer real flows";

    sim.runUntil(fromMs(80));
    EXPECT_EQ(mon.state(0), HealthState::Healthy);
    EXPECT_GE(mon.probesPassed(), 1u);
}

TEST(ProbeMonitor, ProbesAreOffByDefault)
{
    sim::Simulator sim;
    FakePlane plane(sim);
    HealthMonitor mon(plane); // default config: telemetry-only
    mon.start();

    sim.schedule(fromMs(5), [&] { plane.bw_[0] = 0.2; });
    sim.schedule(fromMs(10), [&] { plane.bw_[0] = 1.0; });
    sim.runUntil(fromMs(40));
    EXPECT_EQ(mon.state(0), HealthState::Healthy);
    EXPECT_EQ(mon.probesSent(), 0u);
    EXPECT_EQ(plane.probeCalls_, 0u);
}

// ---------------------------------------------------------------------
// Integration: the queue plane's real probe — a control-path
// descriptor through the recovering PF — gates promotion on the
// Ioctopus testbed, on the kernel stack (NetStack) and on the polled
// datapath (whose probe reaps its own completion: a polled queue
// raises no Tx interrupt). Every probe sent must come back passed.
// ---------------------------------------------------------------------
void
expectProbeGatesPromotionOnTheTestbed(bool poll)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.bypass = poll;
    cfg.healthMonitor = true;
    cfg.health.probePromotion = true;
    cfg.faults.pcieWidthDegrade(fromMs(40), 0, 2)
        .pcieRestore(fromMs(80), 0);
    core::Testbed tb(cfg);

    tb.runFor(fromMs(60));
    ASSERT_NE(tb.monitor(), nullptr);
    EXPECT_EQ(tb.monitor()->state(0), HealthState::Degraded);

    tb.runFor(fromMs(120));
    EXPECT_EQ(tb.monitor()->state(0), HealthState::Healthy)
        << "PF0 should have recovered through a passing probe";
    EXPECT_GE(tb.monitor()->probesSent(), 1u);
    EXPECT_EQ(tb.monitor()->probesSent(), tb.monitor()->probesPassed())
        << "a probe whose completion was never reaped timed out";
}

TEST(ProbeMonitor, NetStackProbeGatesPromotionOnTheTestbed)
{
    expectProbeGatesPromotionOnTheTestbed(false);
}

TEST(ProbeMonitor, PollProbeGatesPromotionOnTheTestbed)
{
    expectProbeGatesPromotionOnTheTestbed(true);
}

} // namespace
} // namespace octo::health
