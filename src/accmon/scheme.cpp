#include "accmon/scheme.hpp"

#include <algorithm>

namespace octo::accmon {

const char*
actionName(Action a)
{
    switch (a) {
      case Action::PromoteLocal:
        return "promote_local";
      case Action::DemoteIdle:
        return "demote_idle";
      case Action::Cap:
        return "cap";
    }
    return "?";
}

std::vector<SchemeConfig>
defaultSchemes()
{
    SchemeConfig promote;
    promote.action = Action::PromoteLocal;

    SchemeConfig demote;
    demote.action = Action::DemoteIdle;
    demote.quota = 16;

    SchemeConfig cap;
    cap.action = Action::Cap;
    cap.quota = 16;

    return {promote, demote, cap};
}

SchemeEngine::SchemeEngine(steer::SteerablePlane& plane,
                           std::vector<SchemeConfig> schemes,
                           obs::Hub* hub, std::string dev)
    : plane_(plane), schemes_(std::move(schemes)),
      dev_(std::move(dev)), appliedBy_(schemes_.size(), 0)
{
    if (hub == nullptr)
        return;
    obs::MetricRegistry& reg = hub->metrics();
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        const obs::Labels l = {
            {"dev", dev_}, {"scheme", actionName(schemes_[i].action)}};
        std::uint64_t* cell = &appliedBy_[i];
        reg.counterFn("accmon_scheme_applied_total", l,
                      [cell] { return *cell; });
    }
    const obs::Labels l = {{"dev", dev_}};
    reg.counterFn("accmon_quota_deferred_total", l,
                  [this] { return quotaDeferred_; });
    reg.counterFn("accmon_standoff_intervals_total", l,
                  [this] { return standoffs_; });
    reg.gaugeFn("accmon_placed_flows", l, [this] {
        return static_cast<double>(placed_.size());
    });
}

void
SchemeEngine::onInterval(RegionSet& rs, sim::Tick interval)
{
    // Reactive verdicts own the plane: while the health monitor has an
    // unhealthy endpoint (or a queue steered away from home), proactive
    // churn would fight the recovery — the engine stands down wholly.
    if (standoff_ && standoff_()) {
        ++standoffs_;
        for (auto& [key, p] : placed_)
            p.bytes = 0;
        return;
    }
    ++intervalsApplied_;

    // Refresh the DMA-local target set each interval: health-driven
    // rebinds can change which queues are local right now.
    locals_.clear();
    const int qn = plane_.steerableQueueCount();
    for (int q = 0; q < qn; ++q) {
        if (plane_.queueDmaLocal(q))
            locals_.push_back(q);
    }

    std::uint64_t total = 0;
    for (const Region& r : rs.regions())
        total += r.bytes;
    const double per_sec = static_cast<double>(sim::kTickPerSec) /
                           static_cast<double>(interval);

    for (std::size_t si = 0; si < schemes_.size(); ++si) {
        switch (schemes_[si].action) {
          case Action::PromoteLocal:
            applyPromote(si, rs, total);
            break;
          case Action::DemoteIdle:
            applyDemoteIdle(si, per_sec);
            break;
          case Action::Cap:
            applyCap(si);
            break;
        }
    }

    // The interval's per-placement byte counts fed every scheme above;
    // reset them for the next interval.
    for (auto& [key, p] : placed_)
        p.bytes = 0;
}

void
SchemeEngine::applyPromote(std::size_t si, const RegionSet& rs,
                           std::uint64_t total_bytes)
{
    const SchemeConfig& s = schemes_[si];
    if (locals_.empty() || total_bytes == 0)
        return;

    // Eligible candidates: hot, stable regions whose elected flow is
    // not already on a DMA-local queue. Sorted hottest-first with a
    // deterministic range tiebreak.
    struct Cand
    {
        std::uint64_t lead;
        std::uint64_t lo;
        const Region* r;
    };
    std::vector<Cand> cands;
    for (const Region& r : rs.regions()) {
        if (!r.candValid || r.age < s.minAge)
            continue;
        if (static_cast<double>(r.bytes) <
            s.minRegionShare * static_cast<double>(total_bytes))
            continue;
        if (r.candQid >= 0 && plane_.queueDmaLocal(r.candQid))
            continue; // already where we would put it
        if (placed_.find(r.candKey) != placed_.end())
            continue;
        cands.push_back(Cand{r.candBytes, r.lo, &r});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) {
                  if (a.lead != b.lead)
                      return a.lead > b.lead;
                  return a.lo < b.lo;
              });

    int quota = s.quota;
    for (const Cand& c : cands) {
        if (static_cast<int>(placed_.size()) >= s.maxPlacements)
            break;
        if (quota <= 0) {
            ++quotaDeferred_;
            continue;
        }
        const int target = locals_[rr_++ % locals_.size()];
        if (!plane_.placeFlow(c.r->candFlow, target))
            continue;
        Placement p;
        p.flow = c.r->candFlow;
        p.qid = target;
        placed_.emplace(c.r->candKey, p);
        ++promotions_;
        ++appliedBy_[si];
        --quota;
    }
}

void
SchemeEngine::applyDemoteIdle(std::size_t si, double per_sec)
{
    const SchemeConfig& s = schemes_[si];
    const int window = s.idleIntervals < 1 ? 1 : s.idleIntervals;
    std::vector<std::uint64_t> victims;
    for (auto& [key, p] : placed_) {
        // Windowed average, not per-interval zero-crossings: sampled
        // attribution makes single intervals noisy for mid-rate flows.
        p.winBytes += p.bytes;
        if (++p.winAge < window)
            continue;
        const double avg_rate = static_cast<double>(p.winBytes) *
                                per_sec /
                                static_cast<double>(window);
        if (avg_rate < s.idleBps)
            victims.push_back(key);
        p.winBytes = 0;
        p.winAge = 0;
    }
    std::sort(victims.begin(), victims.end());

    int quota = s.quota;
    for (const std::uint64_t key : victims) {
        if (quota <= 0) {
            ++quotaDeferred_;
            continue;
        }
        demote(key);
        ++appliedBy_[si];
        --quota;
    }
}

void
SchemeEngine::applyCap(std::size_t si)
{
    const SchemeConfig& s = schemes_[si];
    if (static_cast<int>(placed_.size()) <= s.maxPlacements)
        return;

    // Evict the coldest placements (this interval's exact bytes,
    // deterministic key tiebreak) until the cap holds or the quota is
    // spent.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_cold;
    by_cold.reserve(placed_.size());
    for (const auto& [key, p] : placed_)
        by_cold.emplace_back(p.bytes, key);
    std::sort(by_cold.begin(), by_cold.end());

    int quota = s.quota;
    for (const auto& [bytes, key] : by_cold) {
        if (static_cast<int>(placed_.size()) <= s.maxPlacements)
            break;
        if (quota <= 0) {
            ++quotaDeferred_;
            break;
        }
        demote(key);
        ++appliedBy_[si];
        --quota;
    }
}

void
SchemeEngine::demote(std::uint64_t key)
{
    const auto it = placed_.find(key);
    if (it == placed_.end())
        return;
    plane_.unplaceFlow(it->second.flow);
    placed_.erase(it);
    ++demotions_;
}

} // namespace octo::accmon
