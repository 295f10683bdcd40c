#include "health/monitor.hpp"

#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace octo::health {

using steer::Endpoint;
using steer::EndpointTelemetry;

HealthMonitor::HealthMonitor(steer::SteerablePlane& plane)
    : plane_(plane)
{
    const int pfs = plane_.pfCount();
    const int queues = plane_.steerableQueueCount();
    scores_.reserve(pfs);
    for (int i = 0; i < pfs; ++i) {
        scores_.emplace_back(
            plane_.telemetry(Endpoint::ofPf(i)).nominalGbps);
        base_.push_back({});
    }
    pfDrained_.assign(pfs, 0);
    qscores_.reserve(queues);
    for (int q = 0; q < queues; ++q) {
        // A queue has no bandwidth of its own: its score runs on a unit
        // nominal, so weight is 1 when trusted and 0 when evacuated.
        qscores_.emplace_back(1.0);
        qbase_.push_back({});
        const EndpointTelemetry t =
            plane_.telemetry(Endpoint::ofQueue(0, q));
        home_.push_back(t.homePf);
        lastTarget_.push_back(t.homePf);
    }
    qDrained_.assign(queues, 0);
    if (obs::Hub* h = obs::hub(plane_.planeSim())) {
        obs::MetricRegistry& reg = h->metrics();
        const std::string plane_name = plane_.planeName();
        for (int i = 0; i < pfs; ++i) {
            const obs::Labels l = {{"plane", plane_name},
                                   {"pf", std::to_string(i)}};
            reg.gaugeFn("health_weight", l,
                        [this, i] { return weight(i); });
            reg.gaugeFn("health_state", l, [this, i] {
                return static_cast<double>(scores_[i].state());
            });
        }
        const obs::Labels l = {{"plane", plane_name}};
        reg.counterFn("health_samples", l,
                      [this] { return samples_; });
        reg.counterFn("health_verdicts", l,
                      [this] { return verdicts_; });
        reg.counterFn("health_external_demotions", l,
                      [this] { return externalDemotions_; });
        tracePid_ = h->pidFor("health." + plane_name);
        h->tracer().threadName(tracePid_, 0, "verdicts");
    }
}

void
HealthMonitor::start()
{
    if (started_)
        return;
    started_ = true;
    plane_.setWeightedSteering(true);
    plane_.applyPfWeights(weights());
    tick_ = plane_.planeSim().schedulePeriodic(
        kSamplePeriod, kSamplePeriod, [this] { sampleTick(); });
}

HealthMonitor::~HealthMonitor()
{
    plane_.planeSim().release(tick_);
}

std::vector<double>
HealthMonitor::weights() const
{
    std::vector<double> w;
    w.reserve(scores_.size());
    for (std::size_t i = 0; i < scores_.size(); ++i)
        w.push_back(weight(static_cast<int>(i)));
    return w;
}

void
HealthMonitor::drainEndpoint(const steer::Endpoint& ep)
{
    if (ep.isQueue())
        qDrained_.at(ep.queue) = 1;
    else
        pfDrained_.at(ep.pf) = 1;
    if (auto* tr = obs::tracer(plane_.planeSim(), obs::kCatHealth)) {
        tr->instant(obs::kCatHealth, "drain", tracePid_, 0,
                    plane_.planeSim().now(),
                    {{"endpoint", ep.name()},
                     {"reason", "administrative"}});
    }
    plane_.drain(ep);
    applyWeights();
}

void
HealthMonitor::undrain(const steer::Endpoint& ep)
{
    if (ep.isQueue())
        qDrained_.at(ep.queue) = 0;
    else
        pfDrained_.at(ep.pf) = 0;
    if (auto* tr = obs::tracer(plane_.planeSim(), obs::kCatHealth)) {
        tr->instant(obs::kCatHealth, "undrain", tracePid_, 0,
                    plane_.planeSim().now(),
                    {{"endpoint", ep.name()}});
    }
    applyWeights();
}

void
HealthMonitor::sampleTick()
{
    sim::Simulator& sim = plane_.planeSim();
    {
        bool changed = false;
        for (std::size_t i = 0; i < scores_.size(); ++i) {
            const EndpointTelemetry t =
                plane_.telemetry(Endpoint::ofPf(static_cast<int>(i)));
            HealthSample s;
            s.now = sim.now();
            s.linkUp = t.linkUp;
            s.bwFraction = t.bwFraction;
            s.errorDelta = t.errors - base_[i].errors;
            s.stallDelta = t.stalls - base_[i].stalls;
            base_[i].errors = t.errors;
            base_[i].stalls = t.stalls;
            const bool moved = scores_[i].observe(s);
            changed |= moved;
            ++samples_;
            if (moved) {
                if (auto* tr = obs::tracer(sim, obs::kCatHealth)) {
                    tr->instant(
                        obs::kCatHealth, "pf_verdict", tracePid_, 0,
                        sim.now(),
                        {{"endpoint",
                          Endpoint::ofPf(static_cast<int>(i)).name()},
                         {"state", stateName(scores_[i].state())},
                         {"bw_fraction", s.bwFraction},
                         {"error_delta", s.errorDelta}});
                }
            }
        }
        for (std::size_t q = 0; q < qscores_.size(); ++q) {
            const EndpointTelemetry t = plane_.telemetry(
                Endpoint::ofQueue(home_[q], static_cast<int>(q)));
            HealthSample s;
            s.now = sim.now();
            s.linkUp = t.linkUp;
            s.bwFraction = t.bwFraction;
            s.errorDelta = t.errors - qbase_[q].errors;
            s.stallDelta = t.stalls - qbase_[q].stalls;
            qbase_[q].errors = t.errors;
            qbase_[q].stalls = t.stalls;
            const bool moved = qscores_[q].observe(s);
            changed |= moved;
            ++samples_;
            if (moved) {
                if (auto* tr = obs::tracer(sim, obs::kCatHealth)) {
                    tr->instant(
                        obs::kCatHealth, "queue_verdict", tracePid_, 0,
                        sim.now(),
                        {{"endpoint",
                          Endpoint::ofQueue(home_[q],
                                            static_cast<int>(q))
                              .name()},
                         {"state", stateName(qscores_[q].state())},
                         {"stall_delta", s.stallDelta},
                         {"error_delta", s.errorDelta}});
                }
            }
        }
        if (changed)
            applyWeights();
    }
}

void
HealthMonitor::demoteExternal(int pf)
{
    const sim::Tick now = plane_.planeSim().now();
    if (!scores_.at(pf).externalFault(now))
        return; // already Failed: nothing new to apply
    ++externalDemotions_;
    if (auto* tr = obs::tracer(plane_.planeSim(), obs::kCatHealth)) {
        tr->instant(obs::kCatHealth, "external_demotion", tracePid_, 0,
                    now,
                    {{"endpoint", Endpoint::ofPf(pf).name()},
                     {"state", stateName(scores_.at(pf).state())}});
    }
    applyWeights();
}

void
HealthMonitor::applyWeights()
{
    ++verdicts_;
    const std::vector<double> w = weights();
    plane_.applyPfWeights(w);

    // Last-resort settle: every PF weight is zero — a campaign has
    // sickened all local paths (both PFs gray-demoted, or dead +
    // demoted sibling). Freezing targets would pin queues to a dead
    // endpoint while a less-bad live one exists; flapping between
    // equally-zero weights would oscillate. Instead settle everything
    // on one deterministic least-bad *live* PF — link up first, then
    // highest trained bandwidth fraction, then lowest index — and keep
    // serving with bounded loss. When no PF has link at all (total
    // PCIe outage) targets stay frozen: there is nothing to steer to.
    bool allZero = true;
    for (double x : w)
        allZero = allZero && x <= 0.0;
    int lastResort = -1;
    if (allZero) {
        double bestBw = -1.0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            const EndpointTelemetry t =
                plane_.telemetry(Endpoint::ofPf(static_cast<int>(i)));
            if (!t.linkUp)
                continue;
            if (t.bwFraction > bestBw) {
                bestBw = t.bwFraction;
                lastResort = static_cast<int>(i);
            }
        }
    }

    // Group queues by home PF so keepSlot sees a stable per-group index.
    for (std::size_t pf = 0; pf < w.size(); ++pf) {
        // Strongest alternative endpoint for this group's spillover.
        int alt = -1;
        for (std::size_t o = 0; o < w.size(); ++o) {
            if (o != pf && (alt < 0 || w[o] > w[alt]))
                alt = static_cast<int>(o);
        }
        const double share =
            alt >= 0 ? keepLocalShare(w[pf], w[alt]) : 1.0;

        int slot = 0;
        int group = 0;
        for (std::size_t q = 0; q < home_.size(); ++q) {
            if (home_[q] == static_cast<int>(pf))
                ++group;
        }
        for (std::size_t q = 0; q < home_.size(); ++q) {
            if (home_[q] != static_cast<int>(pf))
                continue;
            int target = static_cast<int>(pf);
            if (!keepSlot(slot, group, share) && alt >= 0 && w[alt] > 0)
                target = alt;
            // A dead home PF with no live alternative keeps its queues:
            // there is nothing better to steer to (total outage).
            if (w[pf] <= 0 && alt >= 0 && w[alt] > 0)
                target = alt;
            if (lastResort >= 0)
                target = lastResort;
            ++slot;
            // Queue-grain override: a sick or administratively drained
            // queue leaves home alone, even when its PF group stays put.
            // Probation does NOT override — the queue returns to its
            // group's target, which is how the recovered path is tried.
            const bool sick = queueSick(static_cast<int>(q));
            const bool adm = qDrained_[q] != 0;
            if ((sick || adm) && alt >= 0 && w[alt] > 0)
                target = alt;
            if (target == lastTarget_[q])
                continue;
            lastTarget_[q] = target;
            if (auto* tr = obs::tracer(plane_.planeSim(),
                                       obs::kCatHealth)) {
                const char* reason =
                    target == lastResort && lastResort >= 0
                                       ? "last_resort"
                    : adm              ? "admin_drain"
                    : sick             ? "queue_sick"
                    : target == home_[q] ? "return_home"
                    : w[pf] <= 0       ? "pf_failed"
                                       : "pf_weighted";
                tr->instant(
                    obs::kCatHealth, "resteer", tracePid_, 0,
                    plane_.planeSim().now(),
                    {{"endpoint",
                      Endpoint::ofQueue(static_cast<int>(pf),
                                        static_cast<int>(q))
                          .name()},
                     {"target_pf", target},
                     {"reason", reason}});
            }
            plane_.resteer(Endpoint::ofQueue(static_cast<int>(pf),
                                             static_cast<int>(q)),
                           target);
        }
    }
}

} // namespace octo::health
