/**
 * @file
 * Unit tests for the pure health-scoring logic: steering-weight math,
 * the four-state machine, hysteresis under square-wave faults, and the
 * exponential probation-backoff schedule. No testbed — HealthScore is
 * sim-free by design.
 */
#include <gtest/gtest.h>

#include "health/score.hpp"

namespace octo::health {
namespace {

using sim::Tick;
using sim::fromMs;
using sim::fromUs;

constexpr double kNominal = 63.0; // x8 gen3 at the calibrated lane rate

/** Feed @p count identical samples spaced by the sample period,
 *  starting right after @p *now; returns how many changed the verdict. */
int
feed(HealthScore& score, Tick* now, int count, double bw,
     bool link_up = true, std::uint64_t stalls = 0)
{
    int changed = 0;
    for (int i = 0; i < count; ++i) {
        *now += kSamplePeriod;
        HealthSample s;
        s.now = *now;
        s.linkUp = link_up;
        s.bwFraction = bw;
        s.stallDelta = stalls;
        if (score.observe(s))
            ++changed;
    }
    return changed;
}

// ---------------------------------------------------------------------
// Weight math.
// ---------------------------------------------------------------------
TEST(HealthWeight, KeepLocalShareProportionalToBandwidth)
{
    // Healthy peer PFs: locality is free, keep everything home.
    EXPECT_DOUBLE_EQ(keepLocalShare(63.0, 63.0), 1.0);
    // Local PF stronger than the remote: still keep everything.
    EXPECT_DOUBLE_EQ(keepLocalShare(63.0, 15.75), 1.0);
    // The issue's headline case — x8 -> x4 is half the remote's
    // bandwidth: keep half, NUDMA the other half.
    EXPECT_DOUBLE_EQ(keepLocalShare(31.5, 63.0), 0.5);
    // x8 -> x2: keep a quarter, move ~3/4 of the local flows.
    EXPECT_DOUBLE_EQ(keepLocalShare(15.75, 63.0), 0.25);
    // Dead local PF degenerates to all-or-nothing failover.
    EXPECT_DOUBLE_EQ(keepLocalShare(0.0, 63.0), 0.0);
    // Dead *remote* PF: nowhere better to go, stay home.
    EXPECT_DOUBLE_EQ(keepLocalShare(15.75, 0.0), 1.0);
}

TEST(HealthWeight, KeepSlotIsDeterministicAndCountsMatchShare)
{
    const int n = 14; // queues per node in the calibrated testbed
    for (double share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        int kept = 0;
        for (int i = 0; i < n; ++i) {
            const bool k = keepSlot(i, n, share);
            EXPECT_EQ(k, keepSlot(i, n, share)); // same answer twice
            kept += k ? 1 : 0;
        }
        EXPECT_EQ(kept, static_cast<int>(share * n + 0.5))
            << "share=" << share;
    }
}

TEST(HealthWeight, KeepSlotSpreadsKeptSetAcrossIdSpace)
{
    // Hash ranking must not keep a plain prefix: otherwise the active
    // low-qid queues would always pile onto one side.
    const int n = 14;
    const double share = 0.25; // keeps 4 of 14
    bool prefix = true;
    for (int i = 0; i < 4; ++i)
        prefix = prefix && keepSlot(i, n, share);
    EXPECT_FALSE(prefix);
}

// ---------------------------------------------------------------------
// State machine.
// ---------------------------------------------------------------------
TEST(HealthScore, StartsHealthyAtFullWeight)
{
    HealthScore score(kNominal);
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal);
}

TEST(HealthScore, SingleBlipBelowThresholdIsIgnored)
{
    HealthScore score(kNominal); // kEnterSamples = 2
    Tick now = 0;
    feed(score, &now, 1, 0.25); // one bad sample (retraining blip)
    EXPECT_EQ(score.state(), HealthState::Healthy);
    feed(score, &now, 5, 1.0);
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_EQ(score.transitions(), 0u);
}

TEST(HealthScore, SustainedDegradationScalesWeight)
{
    HealthScore score(kNominal);
    Tick now = 0;
    feed(score, &now, kEnterSamples, 0.25); // x8 -> x2
    EXPECT_EQ(score.state(), HealthState::Degraded);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal * 0.25);
}

TEST(HealthScore, LinkDownFailsImmediatelyWithZeroWeight)
{
    HealthScore score(kNominal);
    Tick now = 0;
    feed(score, &now, 1, 1.0, /*link_up=*/false);
    EXPECT_EQ(score.state(), HealthState::Failed);
    EXPECT_DOUBLE_EQ(score.weight(), 0.0);
}

TEST(HealthScore, RecoveryGoesThroughProbationThenFullWeight)
{
    HealthScore score(kNominal);
    Tick now = 0;
    feed(score, &now, 1, 1.0, false); // Failed
    // Recovered link: promotion waits out the backoff first...
    const int backoff_samples =
        static_cast<int>(kBackoffMin / kSamplePeriod);
    feed(score, &now, backoff_samples + 1, 1.0);
    ASSERT_EQ(score.state(), HealthState::Probation);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal * kProbationWeight);
    // ...then needs exitSamples clean samples to trust the PF again.
    feed(score, &now, kExitSamples, 1.0);
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal);
}

TEST(HealthScore, StallEventsPenalizeAHealthyLink)
{
    HealthScore score(kNominal);
    Tick now = 0;
    // Link trains at full width but the queue datapath is stalling:
    // effective bw = 1.0 * stallPenalty = 0.5 < degradeEnter.
    feed(score, &now, kEnterSamples, 1.0, true, /*stalls=*/3);
    EXPECT_EQ(score.state(), HealthState::Degraded);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal * kStallPenalty);
}

// ---------------------------------------------------------------------
// Hysteresis.
// ---------------------------------------------------------------------
TEST(HealthScore, OscillationInsideHysteresisBandCausesNoTransitions)
{
    HealthScore score(kNominal); // enter < 0.90, exit >= 0.97
    Tick now = 0;
    // Noise band between the two thresholds: entirely absorbed.
    for (int i = 0; i < 200; ++i)
        feed(score, &now, 1, i % 2 == 0 ? 0.92 : 0.96);
    EXPECT_EQ(score.state(), HealthState::Healthy);
    EXPECT_EQ(score.transitions(), 0u);

    // Same band while Degraded: weight deadband absorbs the wiggle.
    feed(score, &now, kEnterSamples, 0.50);
    ASSERT_EQ(score.state(), HealthState::Degraded);
    const std::uint64_t entered = score.transitions();
    for (int i = 0; i < 200; ++i)
        feed(score, &now, 1, i % 2 == 0 ? 0.48 : 0.52);
    EXPECT_EQ(score.state(), HealthState::Degraded);
    EXPECT_EQ(score.transitions(), entered);
}

TEST(HealthScore, DeadbandFollowsLargeWeightMovesOnly)
{
    HealthScore score(kNominal);
    Tick now = 0;
    feed(score, &now, kEnterSamples, 0.50);
    ASSERT_EQ(score.state(), HealthState::Degraded);
    // 0.50 -> 0.52 is under the 10% deadband: no verdict.
    EXPECT_EQ(feed(score, &now, 3, 0.52), 0);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal * 0.50);
    // 0.50 -> 0.25 is a real move: verdict, weight follows.
    EXPECT_EQ(feed(score, &now, 1, 0.25), 1);
    EXPECT_DOUBLE_EQ(score.weight(), kNominal * 0.25);
}

TEST(HealthScore, SquareWaveFaultConvergesToBoundedTransitions)
{
    HealthScore score(kNominal);
    Tick now = 0;
    // 5 ms down / 5 ms up square wave for half a second: 100 edges.
    const int samples_per_phase =
        static_cast<int>(fromMs(5) / kSamplePeriod);
    int edges = 0;
    for (int cycle = 0; cycle < 50; ++cycle) {
        feed(score, &now, samples_per_phase, 0.25);
        feed(score, &now, samples_per_phase, 1.0);
        edges += 2;
    }
    ASSERT_EQ(edges, 100);
    // The doubling backoff must converge: once it exceeds the up-phase
    // the score stops chasing the wave. Far fewer transitions than
    // edges, and relapses recorded on the way.
    EXPECT_LT(score.transitions(), 40u);
    EXPECT_GE(score.relapses(), 3u);
    // The ladder climbed to the cap and stayed — the wave never earned
    // the continuous healthy tenure that forgiveness requires.
    EXPECT_EQ(score.backoff(), kBackoffMax);
}

// ---------------------------------------------------------------------
// Backoff schedule.
// ---------------------------------------------------------------------
TEST(HealthScore, BackoffDoublesOnRelapseUpToCap)
{
    HealthScore score(kNominal);
    Tick now = 0;
    Tick expected = kBackoffMin;
    // Each fail->recover cycle within the backoffReset window is a
    // relapse: 1, 2, 4, ... capped at backoffMax. Seven cycles reach
    // the 64 ms cap; beyond that the inter-fault gap exceeds
    // backoffReset and the schedule would (correctly) forgive.
    for (int i = 0; i < 7; ++i) {
        feed(score, &now, 1, 1.0, /*link_up=*/false);
        ASSERT_EQ(score.state(), HealthState::Failed);
        if (i > 0)
            expected = std::min(expected * 2, kBackoffMax);
        EXPECT_EQ(score.backoff(), expected) << "cycle " << i;
        // Wait out the (known) backoff, then hand it a clean link so
        // the next cycle starts from Probation.
        const int wait =
            static_cast<int>(score.backoff() / kSamplePeriod) + 1;
        feed(score, &now, wait, 1.0);
    }
    EXPECT_EQ(score.backoff(), kBackoffMax);
}

TEST(HealthScore, LongCleanSpellForgivesTheBackoff)
{
    HealthScore score(kNominal);
    Tick now = 0;
    // Two quick failures escalate the backoff...
    for (int i = 0; i < 2; ++i) {
        feed(score, &now, 1, 1.0, false);
        const int wait =
            static_cast<int>(score.backoff() / kSamplePeriod) + 1;
        feed(score, &now, wait, 1.0);
        feed(score, &now, kExitSamples, 1.0);
        ASSERT_EQ(score.state(), HealthState::Healthy);
    }
    EXPECT_GT(score.backoff(), kBackoffMin);
    // ...then a clean spell longer than backoffReset resets it.
    const int clean =
        static_cast<int>(kBackoffReset / kSamplePeriod) + 2;
    feed(score, &now, clean, 1.0);
    EXPECT_EQ(score.backoff(), kBackoffMin);
}

TEST(HealthScore, IdenticalSampleStreamsGiveIdenticalSchedules)
{
    HealthScore a(kNominal);
    HealthScore b(kNominal);
    Tick na = 0;
    Tick nb = 0;
    // A messy but fixed scenario: degradation, flap, recovery.
    auto scenario = [&](HealthScore& s, Tick* now) {
        feed(s, now, 4, 0.25);
        feed(s, now, 2, 1.0, false);
        feed(s, now, 40, 1.0);
        feed(s, now, 3, 0.5);
        feed(s, now, 200, 1.0);
    };
    scenario(a, &na);
    scenario(b, &nb);
    EXPECT_EQ(a.state(), b.state());
    EXPECT_EQ(a.backoff(), b.backoff());
    EXPECT_EQ(a.transitions(), b.transitions());
    EXPECT_EQ(a.relapses(), b.relapses());
    EXPECT_DOUBLE_EQ(a.weight(), b.weight());
}

} // namespace
} // namespace octo::health
