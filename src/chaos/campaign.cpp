#include "chaos/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "sim/rng.hpp"

namespace octo::chaos {

using fault::FaultPlan;
using fault::TargetSpec;
using sim::Tick;

void
mustValidate(const FaultPlan& plan, const TargetSpec& spec)
{
    const std::vector<std::string> errs = plan.validate(spec);
    if (errs.empty())
        return;
    for (const std::string& e : errs)
        std::fprintf(stderr, "chaos: campaign emitted invalid plan: %s\n",
                      e.c_str());
    std::abort();
}

FaultPlan
correlatedDualPf(const DualPfSpec& spec)
{
    FaultPlan plan;
    const Tick kill_b = spec.firstKill + spec.stagger;
    const Tick recover_a = kill_b + spec.overlap;
    const Tick recover_b = recover_a + spec.recoverStagger;
    plan.pfKill(spec.firstKill, spec.pfA)
        .pfKill(kill_b, spec.pfB)
        .pfRecover(recover_a, spec.pfA)
        .pfRecover(recover_b, spec.pfB);
    mustValidate(plan, {std::max(spec.pfA, spec.pfB) + 1, -1, -1});
    return plan;
}

FaultPlan&
grayEpisode(FaultPlan& plan, Tick at, Tick until, int pf,
            double delay_p, Tick extra, double drop_p)
{
    if (delay_p > 0)
        plan.pfGrayDelay(at, pf, delay_p, extra);
    if (drop_p > 0)
        plan.pfGrayDrop(at, pf, drop_p);
    plan.pfGrayRestore(until, pf);
    return plan;
}

namespace {

/** Uniform real draw (Rng::between is integer-only). */
double
realBetween(sim::Rng& rng, double lo, double hi)
{
    return lo + (hi - lo) * rng.uniform();
}

/** The storm's fault families, drawn with equal odds. */
enum class Family
{
    PfKill,
    PfDegrade,
    LinkFlap,
    GrayDelay,
    GrayDrop,
    QueueStall,
    Qpi,
    Irq,
};

} // namespace

FaultPlan
storm(const StormSpec& spec)
{
    FaultPlan plan;
    sim::Rng rng(spec.seed ^ 0x57'0B'2Dull); // decouple from other users
    const int pfs = spec.targets.pfCount;
    const int queues = spec.targets.queueCount;

    // Candidate families for this target population.
    std::vector<Family> fams;
    if (pfs > 0) {
        fams.push_back(Family::PfKill);
        fams.push_back(Family::PfDegrade);
        fams.push_back(Family::LinkFlap);
        fams.push_back(Family::GrayDelay);
        fams.push_back(Family::GrayDrop);
    }
    if (queues > 0)
        fams.push_back(Family::QueueStall);
    fams.push_back(Family::Qpi);
    fams.push_back(Family::Irq);

    // Per-resource serialization: a PF (or the QPI, or interrupt
    // delivery) with an open episode is skipped until it heals, which
    // is what keeps the schedule free of duplicate kills and dangling
    // recovers. Kills, retrains and link flaps share one PF window.
    // Stalls are one-shot events and need no such bookkeeping.
    std::vector<Tick> pfBusyUntil(pfs > 0 ? pfs : 0, 0);
    std::vector<Tick> grayBusyUntil(pfs > 0 ? pfs : 0, 0);
    Tick qpiBusyUntil = 0;
    Tick irqBusyUntil = 0;

    // Poisson arrivals: exponential inter-arrival gaps around a mean
    // that yields ~10 x intensity arrivals over the horizon. The last
    // 20% of the horizon is kept fault-free so every episode can heal
    // well before the end.
    const double mean_gap =
        static_cast<double>(spec.horizon) /
        (10.0 * (spec.intensity > 0 ? spec.intensity : 1.0));
    const Tick open_until = spec.horizon - spec.horizon / 5;
    Tick t = static_cast<Tick>(rng.exponential(mean_gap));
    while (t < open_until) {
        const Family fam = fams[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(fams.size())))];
        // Episode length: bounded below the heal margin.
        const Tick max_len = spec.horizon - t - spec.horizon / 10;
        const Tick len =
            std::min(max_len, rng.between(sim::fromUs(500),
                                          sim::fromMs(6)));
        switch (fam) {
          case Family::PfKill: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pfs)));
            if (pfBusyUntil[pf] <= t) {
                plan.pfKill(t, pf).pfRecover(t + len, pf);
                pfBusyUntil[pf] = t + len;
            }
            break;
          }
          case Family::PfDegrade: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pfs)));
            if (pfBusyUntil[pf] <= t) {
                const int lanes = 1 + static_cast<int>(rng.below(4));
                const double gen = rng.chance(0.5) ? 0.5 : 1.0;
                plan.pcieWidthDegrade(t, pf, lanes, gen)
                    .pcieRestore(t + len, pf);
                pfBusyUntil[pf] = t + len;
            }
            break;
          }
          case Family::LinkFlap: {
            // Silent: no hotplug event reaches the driver; only health
            // sampling or frame loss can notice it.
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pfs)));
            if (pfBusyUntil[pf] <= t) {
                plan.pcieLinkDown(t, pf).pcieLinkUp(t + len, pf);
                pfBusyUntil[pf] = t + len;
            }
            break;
          }
          case Family::QueueStall:
            plan.queueStall(t,
                            static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(queues))),
                            len);
            break;
          case Family::Qpi:
            if (qpiBusyUntil <= t) {
                plan.qpiDegrade(t, realBetween(rng, 0.2, 0.7))
                    .qpiRestore(t + len);
                qpiBusyUntil = t + len;
            }
            break;
          case Family::Irq:
            if (irqBusyUntil <= t) {
                if (rng.chance(0.5))
                    plan.irqDrop(t, static_cast<int>(rng.between(2, 5)));
                else
                    plan.irqDelay(t, rng.between(sim::fromUs(20),
                                                 sim::fromUs(200)));
                plan.irqRestore(t + len);
                irqBusyUntil = t + len;
            }
            break;
          case Family::GrayDelay: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pfs)));
            if (grayBusyUntil[pf] <= t) {
                plan.pfGrayDelay(t, pf, realBetween(rng, 0.2, 0.8),
                                 rng.between(sim::fromUs(100),
                                             sim::fromUs(800)))
                    .pfGrayRestore(t + len, pf);
                grayBusyUntil[pf] = t + len;
            }
            break;
          }
          case Family::GrayDrop: {
            const int pf = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(pfs)));
            if (grayBusyUntil[pf] <= t) {
                plan.pfGrayDrop(t, pf, realBetween(rng, 0.05, 0.4))
                    .pfGrayRestore(t + len, pf);
                grayBusyUntil[pf] = t + len;
            }
            break;
          }
        }
        t += static_cast<Tick>(rng.exponential(mean_gap));
    }
    mustValidate(plan, spec.targets);
    return plan;
}

} // namespace octo::chaos
