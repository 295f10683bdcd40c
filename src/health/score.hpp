/**
 * @file
 * Per-PF health scoring: state machine, steering-weight math, and
 * anti-flap hysteresis/backoff.
 *
 * A HealthScore consumes periodic samples of one PCIe function's
 * operational state (link, effective bandwidth fraction, error and
 * stall counter deltas) and drives the four-state machine
 *
 *     Healthy -> Degraded -> Failed -> Probation -> Healthy
 *
 * The score's output is a *steering weight* proportional to the PF's
 * effective PCIe bandwidth (operational width x gen fraction): the team
 * driver distributes node-local flows between the local and remote PF
 * in proportion to these weights, trading a little NUDMA for a lot of
 * bandwidth when the local link is sick. Two mechanisms keep a flapping
 * link from triggering a re-steer storm:
 *
 *  - **Hysteresis**: distinct enter/exit bandwidth thresholds, an
 *    N-consecutive-samples filter on entry, and a clean-streak
 *    requirement before Probation promotes back to Healthy.
 *  - **Exponential backoff**: each relapse (a fault arriving soon after
 *    the previous one) doubles the probation delay, so a square-wave
 *    fault converges to a bounded number of weight changes instead of
 *    re-steering on every edge.
 *
 * This header is pure logic (no simulator dependency beyond sim::Tick),
 * so the weight math, hysteresis, and backoff schedule are unit-testable
 * without a testbed.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "steer/steering.hpp"

namespace octo::health {

/** Operational verdict for one endpoint (PF or queue). */
enum class HealthState
{
    Healthy,   ///< Full steering weight.
    Degraded,  ///< Link up but running below nominal bandwidth.
    Failed,    ///< Link down (or effectively dead): weight zero.
    Probation, ///< Recovered but untrusted: reduced weight until a
               ///< clean-sample streak promotes it.
};

/** Human-readable state name (logs, CSV columns, test messages). */
inline const char*
stateName(HealthState s)
{
    switch (s) {
      case HealthState::Healthy:
        return "healthy";
      case HealthState::Degraded:
        return "degraded";
      case HealthState::Failed:
        return "failed";
      case HealthState::Probation:
        return "probation";
    }
    return "?";
}

// Health-monitoring constants, shared by every monitor.

/** Counter-sampling period of the monitor task. */
inline constexpr sim::Tick kSamplePeriod = sim::fromUs(500);

/** Bandwidth fraction below which a PF *enters* Degraded... */
inline constexpr double kDegradeEnter = 0.90;
/** ...and the (higher) fraction required to *leave* it. The gap is the
 *  hysteresis band: a link oscillating between the two thresholds
 *  causes no state change at all. */
inline constexpr double kDegradeExit = 0.97;

/** Consecutive below-threshold samples required to enter Degraded (a
 *  single retraining blip is not a sickness). */
inline constexpr int kEnterSamples = 2;

/** Consecutive clean samples Probation needs before promoting back to
 *  Healthy (and restoring full weight). */
inline constexpr int kExitSamples = 4;

/** Weight fraction carried while on Probation: enough traffic to
 *  exercise the recovered link, little enough that a relapse hurts few
 *  flows. */
inline constexpr double kProbationWeight = 0.25;

/** Probation backoff bounds: the delay before a sick PF may try to
 *  rehabilitate doubles on every relapse between these clamps. */
inline constexpr sim::Tick kBackoffMin = sim::fromMs(1);
inline constexpr sim::Tick kBackoffMax = sim::fromMs(64);

/** A PF that stays clean this long is forgiven: its backoff resets to
 *  kBackoffMin. */
inline constexpr sim::Tick kBackoffReset = sim::fromMs(50);

/** Minimum relative weight change that justifies re-steering while
 *  already Degraded (deadband against counter noise). */
inline constexpr double kWeightDeadband = 0.10;

/** A sample showing fresh queue-stall events scales the observed
 *  bandwidth fraction by this factor: a stalling PF is treated as sick
 *  even when its link trains at full width. */
inline constexpr double kStallPenalty = 0.50;

/** One monitor sample of a PF's observable state. */
struct HealthSample
{
    sim::Tick now = 0;
    bool linkUp = true;
    /** (operational lanes / nominal lanes) x gen-rate fraction. */
    double bwFraction = 1.0;
    /** New device errors (AER correctable+uncorrectable, dead-PF drops,
     *  Tx aborts) since the previous sample. */
    std::uint64_t errorDelta = 0;
    /** New queue-stall fault events since the previous sample. */
    std::uint64_t stallDelta = 0;
};

/**
 * Per-PF health state machine. Feed samples with observe(); read the
 * current verdict with state()/weight().
 */
class HealthScore
{
  public:
    /**
     * @param nominal_gbps The PF's full-width full-gen bandwidth; the
     *                     steering weight is this value scaled by health.
     */
    explicit HealthScore(double nominal_gbps)
        : nominal_(nominal_gbps), weight_(nominal_gbps),
          backoff_(kBackoffMin)
    {
    }

    HealthState state() const { return state_; }

    /** Steering weight in Gb/s-equivalent units. Zero when Failed. */
    double weight() const { return weight_; }

    /** Most recently observed (penalty-adjusted) bandwidth fraction. */
    double bwFraction() const { return lastBw_; }

    /** Current probation backoff delay. */
    sim::Tick backoff() const { return backoff_; }

    /** State transitions so far (the re-steer budget a flapping link
     *  consumes; bounded-flap tests assert on this). */
    std::uint64_t transitions() const { return transitions_; }

    /** Relapses that doubled the backoff. */
    std::uint64_t relapses() const { return relapses_; }

    /**
     * Consume one sample.
     * @return true when the verdict (state or weight beyond the
     *         deadband) changed and the driver should re-steer.
     */
    bool
    observe(const HealthSample& s)
    {
        const double bw =
            s.bwFraction * (s.stallDelta > 0 ? kStallPenalty : 1.0);
        lastBw_ = bw;

        switch (state_) {
          case HealthState::Healthy:
            if (!s.linkUp)
                return fail(s.now);
            maybeForgive(s.now);
            if (bw < kDegradeEnter) {
                if (++belowStreak_ >= kEnterSamples)
                    return degrade(s.now, bw);
            } else {
                belowStreak_ = 0;
            }
            return false;

          case HealthState::Degraded:
            if (!s.linkUp)
                return fail(s.now);
            if (bw >= kDegradeExit) {
                // Heal attempt is gated by the backoff so a square-wave
                // fault cannot bounce Degraded<->Healthy on every edge.
                if (s.now - enteredAt_ >= backoff_)
                    return probation(s.now);
                return false;
            }
            belowStreak_ = kEnterSamples;
            // Deeper (or partially recovered) degradation: follow it
            // only when the weight moved beyond the deadband.
            if (relDelta(nominal_ * bw, weight_) > kWeightDeadband) {
                weight_ = nominal_ * bw;
                return true;
            }
            return false;

          case HealthState::Failed:
            if (s.linkUp && bw >= kDegradeExit &&
                s.now - enteredAt_ >= backoff_) {
                return probation(s.now);
            }
            return false;

          case HealthState::Probation:
            if (!s.linkUp)
                return fail(s.now);
            if (bw < kDegradeEnter) {
                // Relapse during the trial period.
                penalize(s.now);
                belowStreak_ = kEnterSamples;
                return degrade(s.now, bw);
            }
            if (++cleanStreak_ >= kExitSamples)
                return promote(s.now);
            return false;
        }
        return false;
    }

    /** External fault verdict (differential prober, operator): the
     *  path is sick in a way telemetry cannot see, so force Failed
     *  with the usual backoff escalation. The normal
     *  Failed→Probation→Healthy ladder governs recovery. Returns
     *  verdict-changed. */
    bool
    externalFault(sim::Tick now)
    {
        if (state_ == HealthState::Failed)
            return false;
        return fail(now);
    }

  private:
    static double
    relDelta(double a, double b)
    {
        const double hi = std::max(a, b);
        return hi > 0 ? (hi - std::min(a, b)) / hi : 0.0;
    }

    /**
     * Escalate the backoff unless the PF had earned back its trust.
     * Forgiveness is keyed on *continuous healthy tenure*, not time
     * since the last fault: a square wave whose period exceeds the
     * backoff still relapses (the gap was the backoff's doing, not the
     * link's), so the ladder climbs monotonically to the cap instead of
     * resetting every time the gate works.
     */
    void
    penalize(sim::Tick now)
    {
        const bool was_clean = state_ == HealthState::Healthy &&
                               now - healthySince_ > kBackoffReset;
        if (lastBadAt_ > 0 && !was_clean) {
            backoff_ = std::min(backoff_ * 2, kBackoffMax);
            ++relapses_;
        } else {
            backoff_ = kBackoffMin;
        }
        lastBadAt_ = now;
    }

    /** Long *uninterrupted* healthy spell: reset the backoff floor. */
    void
    maybeForgive(sim::Tick now)
    {
        if (lastBadAt_ > 0 && now - healthySince_ > kBackoffReset)
            backoff_ = kBackoffMin;
    }

    bool
    enter(HealthState st, sim::Tick now, double w)
    {
        state_ = st;
        enteredAt_ = now;
        weight_ = w;
        belowStreak_ = 0;
        cleanStreak_ = 0;
        ++transitions_;
        return true;
    }

    bool
    fail(sim::Tick now)
    {
        penalize(now);
        return enter(HealthState::Failed, now, 0.0);
    }

    bool
    degrade(sim::Tick now, double bw)
    {
        penalize(now);
        return enter(HealthState::Degraded, now, nominal_ * bw);
    }

    bool
    probation(sim::Tick now)
    {
        return enter(HealthState::Probation, now,
                     nominal_ * kProbationWeight);
    }

    bool
    promote(sim::Tick now)
    {
        healthySince_ = now;
        return enter(HealthState::Healthy, now, nominal_);
    }

    double nominal_;
    HealthState state_ = HealthState::Healthy;
    double weight_;
    double lastBw_ = 1.0;
    sim::Tick enteredAt_ = 0;
    sim::Tick lastBadAt_ = 0;
    sim::Tick healthySince_ = 0; ///< Start of the current Healthy spell.
    sim::Tick backoff_;
    int belowStreak_ = 0;
    int cleanStreak_ = 0;
    std::uint64_t transitions_ = 0;
    std::uint64_t relapses_ = 0;
};

// ------------------------------------------------------- steering math
// The proportional-keep and deterministic-spread functions moved to the
// device-agnostic steering plane (steer/steering.hpp); re-exported here
// because the health layer and its tests grew up calling them
// unqualified.
using steer::keepLocalShare;
using steer::keepSlot;

} // namespace octo::health
