/**
 * @file
 * Health monitor: a simulator task that judges the *endpoints* of one
 * steering plane — every PF and every steerable queue — and drives
 * weighted re-steering through the plane's device-agnostic interface.
 *
 * Every kSamplePeriod (500 us) the monitor takes an EndpointTelemetry
 * snapshot of each endpoint and feeds the deltas to that endpoint's
 * HealthScore:
 *
 *  - **PF endpoints** aggregate link state, trained width/gen fraction
 *    and AER/drop/abort counters. A PF verdict moves a *weighted share*
 *    of the queues homed behind it (keepLocalShare over the current
 *    weights, spread deterministically with keepSlot).
 *  - **Queue endpoints** observe their own datapath: a stalled
 *    completion ring or poisoned buffer pool marks just that queue
 *    impaired. A queue verdict re-steers exactly the sick queue to the
 *    strongest other PF while its healthy siblings stay bound in place;
 *    once the queue rehabilitates (Probation -> Healthy) it returns to
 *    its PF group's target.
 *
 * The monitor is device-agnostic: it holds a steer::SteerablePlane, so
 * the same state machine judges NIC Rx rings (os::NetStack) and NVMe
 * submission queues (nvme::NvmeDriver). Attaching it switches the plane
 * into weighted-steering mode — the driver's own all-or-nothing
 * failover stands down.
 *
 * Administrative drain rides the same plumbing: drainEndpoint() zeroes
 * an endpoint's effective weight (no fault involved) so its load is
 * evacuated for maintenance; undrain() lets it return.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "health/score.hpp"
#include "sim/simulator.hpp"
#include "steer/endpoint.hpp"
#include "steer/plane.hpp"

namespace octo::health {

class HealthMonitor
{
  public:
    explicit HealthMonitor(steer::SteerablePlane& plane);
    ~HealthMonitor();

    /** Spawn the sampling task (idempotent). */
    void start();

    /** The judged plane (differential prober sends probes through it). */
    steer::SteerablePlane& plane() { return plane_; }

    /**
     * External fault verdict for PF @p pf from a detector outside the
     * telemetry loop (differential prober, operator tooling): force
     * the score to Failed — with backoff escalation — and re-apply
     * weights. Gray failures land here: by construction they never
     * move bwFraction/AER enough for observe() to act.
     */
    void demoteExternal(int pf);

    /** External demotions accepted (score actually moved). */
    std::uint64_t externalDemotions() const { return externalDemotions_; }

    // ------------------------------------------------ PF-grain verdicts
    HealthState state(int pf) const { return scores_.at(pf).state(); }

    /** Effective steering weight: the score's weight, zeroed while the
     *  PF is administratively drained. */
    double
    weight(int pf) const
    {
        return pfDrained_.at(pf) != 0 ? 0.0 : scores_.at(pf).weight();
    }

    const HealthScore& score(int pf) const { return scores_.at(pf); }

    // --------------------------------------------- queue-grain verdicts
    HealthState
    queueState(int q) const
    {
        return qscores_.at(q).state();
    }

    /** True while a queue-grain verdict (or admin drain) holds @p q
     *  away from its PF group's target. */
    bool
    queueSteeredAway(int q) const
    {
        return lastTarget_.at(q) != home_.at(q);
    }

    // ------------------------------------------- administrative drain
    /**
     * Evacuate @p ep for maintenance: its effective weight drops to
     * zero (PF grain) or the queue is steered off its home PF (queue
     * grain), the plane flushes its in-flight work, and it stays out
     * until undrain(). No fault is recorded — the HealthScore state
     * machine is not involved.
     */
    void drainEndpoint(const steer::Endpoint& ep);

    /** Lift an administrative drain and re-apply weights. */
    void undrain(const steer::Endpoint& ep);

    bool
    drained(const steer::Endpoint& ep) const
    {
        return ep.isQueue() ? qDrained_.at(ep.queue) != 0
                            : pfDrained_.at(ep.pf) != 0;
    }

    // ------------------------------------------------------ statistics
    /** Samples taken across all endpoints (PFs and queues). */
    std::uint64_t samples() const { return samples_; }

    /** Weight applications pushed to the plane (each may re-steer
     *  several endpoints). Bounded-flap tests assert on this. */
    std::uint64_t verdicts() const { return verdicts_; }

    /** Current effective steering weights, one per PF. */
    std::vector<double> weights() const;

  private:
    void sampleTick();
    void applyWeights();

    /** A queue-grain verdict that evacuates the queue alone. */
    bool
    queueSick(int q) const
    {
        const HealthState st = qscores_[q].state();
        return st == HealthState::Degraded || st == HealthState::Failed;
    }

    /** Cumulative error/stall counters at the last sample. */
    struct Baseline
    {
        std::uint64_t errors = 0;
        std::uint64_t stalls = 0;
    };

    steer::SteerablePlane& plane_;
    std::vector<HealthScore> scores_;  ///< One per PF.
    std::vector<HealthScore> qscores_; ///< One per steerable queue.
    std::vector<Baseline> base_;
    std::vector<Baseline> qbase_;
    std::vector<int> home_;       ///< Setup-time home PF per queue.
    std::vector<int> lastTarget_; ///< Last PF target pushed per queue.
    std::vector<char> pfDrained_;
    std::vector<char> qDrained_;
    sim::EventRef tick_; ///< Periodic sampling cadence (one slot).
    bool started_ = false;
    std::uint64_t samples_ = 0;
    std::uint64_t verdicts_ = 0;
    std::uint64_t externalDemotions_ = 0;
    int tracePid_ = 0; ///< Trace process for this plane's health lane.
};

} // namespace octo::health
