/**
 * @file
 * Declarative fault schedules.
 *
 * A FaultPlan is a list of timed fault events — PF surprise-removal,
 * PCIe link flaps and width/gen degradation, NIC queue stalls,
 * interconnect degradation, interrupt-delivery faults — that an
 * Injector replays against the model at exact simulated times. Plans
 * are plain data: copyable, comparable, and fully deterministic, so the
 * same plan over the same testbed seed reproduces bit-identical event
 * counts. Seeded schedules come from one generator, chaos::storm()
 * (chaos/campaign.hpp); this header holds only the events, their
 * builders and the validator.
 */
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace octo::fault {

/** Everything the injector knows how to break (and un-break). */
enum class FaultKind
{
    PcieLinkDown,     ///< Silent PCIe link loss (no driver event).
    PcieLinkUp,       ///< Silent link return.
    PcieWidthDegrade, ///< Retrain to fewer lanes and/or lower gen.
    PcieRestore,      ///< Retrain back to full width/gen/up.
    PfKill,           ///< Surprise removal: link down + driver event.
    PfRecover,        ///< Re-probe: link up + driver event.
    QueueStall,       ///< NIC queue datapath stalls for a duration.
    QueuePoison,      ///< NIC queue buffer pool poisoned for a duration.
    QpiDegrade,       ///< Interconnect links retrain to a rate fraction.
    QpiRestore,       ///< Interconnect back to nominal.
    IrqDelay,         ///< Extra delivery latency on every interrupt.
    IrqDrop,          ///< Lose every n-th interrupt (watchdog recovers).
    IrqRestore,       ///< Clear all interrupt faults.
    NvmeDoorbellStuck, ///< NVMe SQ doorbell writes ignored for a duration.
    NvmeCqStall,       ///< NVMe CQ posting wedged for a duration.
    PfGrayDelay,       ///< Fraction of a PF's DMAs take an extra latency tail.
    PfGrayDrop,        ///< Silent sub-threshold completion loss on a PF.
    PfGrayRestore,     ///< Clear all gray faults on a PF.
};

constexpr int kFaultKindCount = 18;

/** Human-readable kind name (logs, CSV columns, test messages). */
const char* kindName(FaultKind k);

/**
 * Endpoint population a plan will be replayed against, for schedule
 * validation. A count of -1 means "unknown": range checks for that
 * endpoint class are skipped (the matching events may still be
 * no-op'd by an Injector whose target object is absent).
 */
struct TargetSpec
{
    int pfCount = -1;
    int queueCount = -1;
    int nvmeSqCount = -1;
};

/** One scheduled fault. Field meaning varies by kind (see builders). */
struct FaultEvent
{
    sim::Tick at = 0;
    FaultKind kind = FaultKind::PfKill;
    int target = 0;          ///< PF index, queue id — kind-dependent.
    int arg = 0;             ///< Lanes, drop-every-n — kind-dependent.
    double scale = 1.0;      ///< Rate fraction for degradations.
    sim::Tick duration = 0;  ///< Stall length / IRQ extra delay.

    bool
    operator==(const FaultEvent& o) const
    {
        return at == o.at && kind == o.kind && target == o.target &&
               arg == o.arg && scale == o.scale &&
               duration == o.duration;
    }
};

/**
 * An ordered fault schedule. Builders append and return *this for
 * chaining; `events()` yields the schedule sorted by time with
 * insertion order breaking ties (stable), which is what makes replay
 * deterministic regardless of authoring order.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** Schedule-ordered view: sorted by `at`, stable on ties. */
    std::vector<FaultEvent>
    events() const
    {
        std::vector<FaultEvent> out(events_);
        std::stable_sort(out.begin(), out.end(),
                         [](const FaultEvent& a, const FaultEvent& b) {
                             return a.at < b.at;
                         });
        return out;
    }

    FaultPlan&
    add(const FaultEvent& ev)
    {
        events_.push_back(ev);
        return *this;
    }

    // ------------------------------------------------------- builders
    FaultPlan&
    pcieLinkDown(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PcieLinkDown, pf, 0, 1.0, 0});
    }

    FaultPlan&
    pcieLinkUp(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PcieLinkUp, pf, 0, 1.0, 0});
    }

    /** Retrain PF @p pf to @p lanes lanes at @p gen_scale per-lane
     *  rate (1.0 keeps the gen). */
    FaultPlan&
    pcieWidthDegrade(sim::Tick at, int pf, int lanes,
                     double gen_scale = 1.0)
    {
        return add(
            {at, FaultKind::PcieWidthDegrade, pf, lanes, gen_scale, 0});
    }

    FaultPlan&
    pcieRestore(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PcieRestore, pf, 0, 1.0, 0});
    }

    FaultPlan&
    pfKill(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PfKill, pf, 0, 1.0, 0});
    }

    FaultPlan&
    pfRecover(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PfRecover, pf, 0, 1.0, 0});
    }

    FaultPlan&
    queueStall(sim::Tick at, int qid, sim::Tick duration)
    {
        return add({at, FaultKind::QueueStall, qid, 0, 1.0, duration});
    }

    FaultPlan&
    queuePoison(sim::Tick at, int qid, sim::Tick duration)
    {
        return add({at, FaultKind::QueuePoison, qid, 0, 1.0, duration});
    }

    FaultPlan&
    qpiDegrade(sim::Tick at, double scale)
    {
        return add({at, FaultKind::QpiDegrade, 0, 0, scale, 0});
    }

    FaultPlan&
    qpiRestore(sim::Tick at)
    {
        return add({at, FaultKind::QpiRestore, 0, 0, 1.0, 0});
    }

    FaultPlan&
    irqDelay(sim::Tick at, sim::Tick extra)
    {
        return add({at, FaultKind::IrqDelay, 0, 0, 1.0, extra});
    }

    FaultPlan&
    irqDrop(sim::Tick at, int every_n)
    {
        return add({at, FaultKind::IrqDrop, 0, every_n, 1.0, 0});
    }

    FaultPlan&
    irqRestore(sim::Tick at)
    {
        return add({at, FaultKind::IrqRestore, 0, 0, 1.0, 0});
    }

    /** NVMe SQ @p sq's doorbell register stops accepting writes for
     *  @p duration: submissions block at the doorbell (firmware hang,
     *  the SQ-grain mirror of the NIC's QueueStall). */
    FaultPlan&
    nvmeDoorbellStuck(sim::Tick at, int sq, sim::Tick duration)
    {
        return add(
            {at, FaultKind::NvmeDoorbellStuck, sq, 0, 1.0, duration});
    }

    /** NVMe SQ @p sq's completion-queue posting wedges for @p duration:
     *  IOs complete on media but their CQEs surface only after the CQ
     *  unwedges. */
    FaultPlan&
    nvmeCqStall(sim::Tick at, int sq, sim::Tick duration)
    {
        return add({at, FaultKind::NvmeCqStall, sq, 0, 1.0, duration});
    }

    /** Gray latency fault: a fraction @p p of DMAs through PF @p pf
     *  take an @p extra tail on top of the modeled transfer time. The
     *  link stays up and `bwFraction()` is untouched, so PF telemetry
     *  alone never trips the HealthMonitor — only a differential
     *  prober comparing sibling RTTs can see it. */
    FaultPlan&
    pfGrayDelay(sim::Tick at, int pf, double p, sim::Tick extra)
    {
        return add({at, FaultKind::PfGrayDelay, pf, 0, p, extra});
    }

    /** Gray loss fault: a fraction @p p of frames/completions through
     *  PF @p pf vanish silently — no AER counter, no dead-PF drop
     *  accounting, no driver event. Sub-threshold by construction. */
    FaultPlan&
    pfGrayDrop(sim::Tick at, int pf, double p)
    {
        return add({at, FaultKind::PfGrayDrop, pf, 0, p, 0});
    }

    /** Heal every gray fault on PF @p pf. */
    FaultPlan&
    pfGrayRestore(sim::Tick at, int pf)
    {
        return add({at, FaultKind::PfGrayRestore, pf, 0, 1.0, 0});
    }

    /**
     * Sanity-check the schedule against @p spec: contradictory PF
     * lifecycles (recover before any kill, duplicate kill on an
     * already-dead PF), events targeting endpoints that don't exist,
     * and out-of-domain parameters (gray probability outside (0, 1],
     * non-positive retrain width, degradation scale outside (0, 1]).
     * Returns one actionable message per problem; empty means the plan
     * is replayable. Injector::start() and the chaos campaign builder
     * both refuse plans that fail this check.
     */
    std::vector<std::string> validate(const TargetSpec& spec = {}) const;

  private:
    std::vector<FaultEvent> events_;
};

} // namespace octo::fault
