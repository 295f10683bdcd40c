#include "health/prober.hpp"

#include "obs/hub.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace octo::health {

using steer::Endpoint;

namespace {

/** Gap between probing rounds. */
constexpr sim::Tick kPeriod = sim::fromMs(1);
/** Probes per PF per round (averaged into one RTT sample). */
constexpr int kProbesPerRound = 2;
/** Outlier when ewma > ratio x best sibling + margin ... */
constexpr double kOutlierRatio = 3.0;
constexpr sim::Tick kMargin = sim::fromUs(20);
/** ... or unconditionally above this bound (catches the case where
 *  *every* sibling is gray and there is no good baseline). */
constexpr sim::Tick kAbsoluteRtt = sim::fromMs(1);
/** Rounds over the line before the demotion fires. */
constexpr int kConsecutiveRounds = 2;
/** EWMA smoothing factor for new samples. */
constexpr double kEwmaAlpha = 0.4;

} // namespace

DifferentialProber::DifferentialProber(HealthMonitor& monitor)
    : mon_(monitor)
{
    const int pfs = mon_.plane().pfCount();
    ewma_.assign(pfs, -1.0);
    streak_.assign(pfs, 0);
    if (obs::Hub* h = obs::hub(mon_.plane().planeSim())) {
        obs::MetricRegistry& reg = h->metrics();
        const std::string plane_name = mon_.plane().planeName();
        for (int i = 0; i < pfs; ++i) {
            const obs::Labels l = {{"plane", plane_name},
                                   {"pf", std::to_string(i)}};
            reg.gaugeFn("prober_rtt_us", l,
                        [this, i] { return rttUs(i); });
        }
        const obs::Labels l = {{"plane", plane_name}};
        reg.counterFn("prober_rounds", l, [this] { return rounds_; });
        reg.counterFn("prober_probes", l,
                      [this] { return probesSent_; });
        reg.counterFn("prober_timeouts", l,
                      [this] { return probesTimedOut_; });
        reg.counterFn("prober_demotions", l,
                      [this] { return demotions_; });
        tracePid_ = h->pidFor("health." + plane_name);
    }
}

void
DifferentialProber::start()
{
    if (started_)
        return;
    started_ = true;
    task_ = run();
}

double
DifferentialProber::rttUs(int pf) const
{
    const double e = ewma_.at(pf);
    return e < 0 ? -1.0 : sim::toUs(static_cast<sim::Tick>(e));
}

sim::Task<>
DifferentialProber::run()
{
    steer::SteerablePlane& plane = mon_.plane();
    sim::Simulator& sim = plane.planeSim();
    const int pfs = plane.pfCount();
    for (;;) {
        co_await sim::delay(sim, kPeriod);
        ++rounds_;
        std::vector<double> rtt(pfs, -1.0);
        for (int pf = 0; pf < pfs; ++pf) {
            // Failed PFs are already out of service and inside the
            // monitor's backoff/probation ladder; probing them here
            // would just fight that recovery loop.
            if (mon_.state(pf) == HealthState::Failed)
                continue;
            double sum = 0.0;
            int n = 0;
            for (int k = 0; k < kProbesPerRound; ++k) {
                const sim::Tick t0 = sim.now();
                const bool ok = co_await plane.probe(pf);
                const sim::Tick el = sim.now() - t0;
                ++probesSent_;
                if (!ok && el <= sim::fromNs(100))
                    continue; // no queue on this PF / link down: no path
                if (!ok)
                    ++probesTimedOut_;
                // A timeout is not discarded — the watchdog-bounded
                // elapsed time *is* the outlier sample.
                sum += static_cast<double>(el);
                ++n;
            }
            if (n == 0)
                continue;
            const double avg = sum / n;
            ewma_[pf] = ewma_[pf] < 0
                            ? avg
                            : kEwmaAlpha * avg +
                                  (1.0 - kEwmaAlpha) * ewma_[pf];
            rtt[pf] = ewma_[pf];
        }

        // Differential verdict over the siblings probed this round.
        double best = -1.0;
        int sampled = 0;
        for (int pf = 0; pf < pfs; ++pf) {
            if (rtt[pf] < 0)
                continue;
            ++sampled;
            if (best < 0 || rtt[pf] < best)
                best = rtt[pf];
        }
        for (int pf = 0; pf < pfs; ++pf) {
            if (rtt[pf] < 0) {
                streak_[pf] = 0;
                continue;
            }
            const bool differential =
                sampled >= 2 &&
                rtt[pf] > kOutlierRatio * best +
                              static_cast<double>(kMargin);
            const bool absolute =
                rtt[pf] > static_cast<double>(kAbsoluteRtt);
            if (!differential && !absolute) {
                streak_[pf] = 0;
                continue;
            }
            if (++streak_[pf] < kConsecutiveRounds)
                continue;
            streak_[pf] = 0;
            ewma_[pf] = -1.0; // fresh baseline when it comes back
            ++demotions_;
            if (auto* tr = obs::tracer(sim, obs::kCatHealth)) {
                tr->instant(
                    obs::kCatHealth, "prober_demotion", tracePid_, 0,
                    sim.now(),
                    {{"endpoint", Endpoint::ofPf(pf).name()},
                     {"rtt_us", sim::toUs(static_cast<sim::Tick>(
                                    rtt[pf]))},
                     {"best_sibling_us",
                      sim::toUs(static_cast<sim::Tick>(best))},
                     {"reason", differential ? "differential"
                                             : "absolute"}});
            }
            mon_.demoteExternal(pf);
        }
    }
}

} // namespace octo::health
