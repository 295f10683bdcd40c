/**
 * @file
 * Chaos campaigns: a declarative layer above fault::FaultPlan.
 *
 * A FaultPlan is a flat list of timed events; a *campaign* is a
 * scenario — a correlated, multi-device composition with guaranteed
 * properties: every fault it opens it also heals before the horizon
 * (so a finished campaign leaves the system nominally fault-free and
 * quiescence invariants are meaningful), and the generated plan always
 * passes FaultPlan::validate() against the declared target population
 * (a campaign that emits a contradictory schedule is a programmer
 * error and aborts at build time, not replay time).
 *
 * Three scenario families:
 *
 *  - **Correlated dual-PF**: both PFs of one octoNIC die with
 *    overlapping dead windows — the staggered double failure that
 *    exercises last-resort steering (nowhere local to go).
 *  - **Storm**: the one seeded fault generator. Poisson arrivals over
 *    PF kills, width/gen retrains, silent link flaps, gray delay and
 *    drop, NIC queue stalls, QPI degradation and interrupt drop/delay,
 *    with per-resource serialization so the schedule stays
 *    contradiction-free. Intensity scales the arrival rate.
 *  - **Gray siblings**: sub-threshold latency/loss on chosen PFs that
 *    stock telemetry cannot see — the differential prober's prey.
 */
#pragma once

#include <cstdint>

#include "fault/plan.hpp"
#include "sim/time.hpp"

namespace octo::chaos {

/** Correlated dual-PF scenario parameters. */
struct DualPfSpec
{
    /** First PF kill. */
    sim::Tick firstKill = sim::fromMs(5);
    /** Second PF dies this long after the first (both then dead). */
    sim::Tick stagger = sim::fromMs(3);
    /** Length of the both-dead window before the first recovery. */
    sim::Tick overlap = sim::fromMs(4);
    /** Second recovery trails the first by this much. */
    sim::Tick recoverStagger = sim::fromMs(2);
    int pfA = 0;
    int pfB = 1;
};

/** Poisson-storm scenario parameters. */
struct StormSpec
{
    std::uint64_t seed = 1;
    /** Campaign horizon: every opened fault heals before this. */
    sim::Tick horizon = sim::fromMs(60);
    /** Arrival-rate multiplier: mean arrivals ~= 10 x intensity. */
    double intensity = 1.0;
    /** Target population. Unlike validate()'s "-1 = unknown", the
     *  storm needs real counts to draw targets from, so pfCount and
     *  queueCount must be > 0. The storm draws no NVMe faults; the
     *  plan is validated against nvmeSqCount all the same. */
    fault::TargetSpec targets{2, 8, 0};
};

/**
 * Both PFs of the octoNIC die with overlapping dead windows, then
 * recover staggered. Layout (k = firstKill, s = stagger, o = overlap,
 * r = recoverStagger):
 *
 *     pfA:  ---kill]========[recover----------
 *     pfB:  --------kill]========[recover-----
 *            k      k+s    k+s+o  k+s+o+r
 *
 * During [k+s, k+s+o] no local path exists at all; steering must
 * settle on the least-bad remote option instead of oscillating.
 */
fault::FaultPlan correlatedDualPf(const DualPfSpec& spec = {});

/**
 * Seed-derived Poisson fault storm over the declared target set. Same
 * seed, same spec => identical plan. Every episode it opens heals
 * before the horizon, and the schedule always validates against
 * `spec.targets`.
 *
 * Families, drawn with equal odds among those the targets support:
 *
 *  - PF (pfCount > 0), serialized on one busy window per PF: surprise
 *    kill; retrain to 1-4 lanes, at half gen rate with p = 0.5; silent
 *    link flap. Gray delay and gray drop share a second per-PF window.
 *  - Queue stall (queueCount > 0). One-shot, not serialized.
 *  - QPI degradation to 20-70% of nominal, and interrupt faults (drop
 *    every 2-5th, or delay 20-200 us, healed by irqRestore): each
 *    serialized on its own busy window.
 */
fault::FaultPlan storm(const StormSpec& spec);

/**
 * Append a gray-sibling episode to @p plan: PF @p pf serves a latency
 * tail on fraction @p delay_p of its DMAs and silently loses fraction
 * @p drop_p of its frames/probe completions from @p at until @p until
 * (when the gray state heals). Telemetry-invisible by construction.
 */
fault::FaultPlan& grayEpisode(fault::FaultPlan& plan, sim::Tick at,
                              sim::Tick until, int pf,
                              double delay_p = 0.5,
                              sim::Tick extra = sim::fromUs(400),
                              double drop_p = 0.3);

/**
 * Abort (with every message on stderr) unless @p plan validates
 * against @p spec. Campaign builders run their output through this;
 * exposed for hand-rolled campaign code.
 */
void mustValidate(const fault::FaultPlan& plan,
                  const fault::TargetSpec& spec);

} // namespace octo::chaos
