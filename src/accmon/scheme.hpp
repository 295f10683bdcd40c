/**
 * @file
 * DAMOS-style schemes over access-monitor regions: declarative
 * "predicate over region rate/age -> placement action" rules, applied
 * once per aggregation interval with a hard per-interval churn quota.
 *
 * Where the health plane is *reactive* — it moves flows only after an
 * endpoint is judged sick — schemes are *proactive*: they spend a
 * bounded re-steering budget every interval to keep the hottest flows
 * on DMA-local queues while the popularity distribution shifts.
 *
 * Three actions cover the contention loop:
 *
 *  - **PromoteLocal**: regions hot enough (share of interval traffic
 *    >= minRegionShare) and stable enough (age >= minAge) surrender
 *    their elected hottest flow, which is pinned to a DMA-local queue
 *    (round-robin over the plane's queueDmaLocal() set).
 *  - **DemoteIdle**: placed flows whose byte rate, averaged over an
 *    idleIntervals-interval window, falls below idleBps are un-placed
 *    — they fall back to RSS, vacating the local queue slot.
 *  - **Cap**: when the placement table exceeds maxPlacements, the
 *    coldest placed flows are evicted until the cap holds.
 *
 * Every action is counted (accmon_scheme_applied_total{scheme}) and
 * quota-bounded (quota actions per scheme per interval; what the quota
 * defers is counted too), so scheme churn can never exceed
 * quota x schemes moves per interval no matter how adversarial the
 * traffic. The engine stands down wholly — no placements, no
 * demotions — while the standoff predicate holds (a HealthMonitor
 * reporting a non-Healthy PF or a steered-away queue), so reactive
 * verdicts always win the plane.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "accmon/region.hpp"
#include "obs/hub.hpp"
#include "steer/plane.hpp"

namespace octo::accmon {

/** What a matching scheme does. */
enum class Action
{
    PromoteLocal,
    DemoteIdle,
    Cap,
};

const char* actionName(Action a);

/** One declarative rule; fields irrelevant to the action are unused. */
struct SchemeConfig
{
    Action action = Action::PromoteLocal;

    // ------------------------------------ predicate (PromoteLocal)
    /** Region share of the interval's bytes required to promote. */
    double minRegionShare = 0.002;
    /** Intervals a region must have kept its shape (split/merge-free)
     *  before its candidate is trusted. 0 (the default) accepts fresh
     *  regions too: candidates are re-elected from scratch every
     *  interval, so the lead is already current evidence — age is
     *  extra stability confidence, not correctness, and hot regions
     *  split often enough that a nonzero gate starves promotion while
     *  the partition is still zooming in. */
    std::uint32_t minAge = 0;

    // -------------------------------------- predicate (DemoteIdle)
    /** A placed flow whose windowed average byte rate is below this
     *  is idling. */
    double idleBps = 1.0e5;
    /** Evaluation window, in aggregation intervals: idleness is judged
     *  on the byte rate averaged over this many intervals, not on
     *  per-interval zero-crossings — under sampled attribution (see
     *  AccessMonitor::kSampleEvery) an active mid-rate flow routinely
     *  shows zero *sampled* bytes in any single interval, and a
     *  consecutive-quiet rule would churn such flows off their local
     *  queues while they still carry traffic. */
    int idleIntervals = 32;

    // ----------------------------------------------- bounds (all)
    /** Placement-table cap (PromoteLocal stops at it; Cap enforces
     *  it by evicting the coldest placements). */
    int maxPlacements = 1024;
    /** Hard per-interval action quota for this scheme. */
    int quota = 64;
};

/** The promote/demote/cap trio the testbed attaches: a placement cap
 *  of 1024 (SchemeConfig's default) for promote and cap, a quota of 16
 *  for demote and cap. */
std::vector<SchemeConfig> defaultSchemes();

/**
 * Applies a scheme list against one steerable plane. The owning
 * AccessMonitor calls onInterval() right before it closes each
 * aggregation interval (so the open interval's byte counts and
 * candidate elections are still live) and routes every sampled
 * datapath record through notePlacedTraffic() so placed flows are
 * tracked and excluded from further candidate elections.
 */
class SchemeEngine
{
  public:
    SchemeEngine(steer::SteerablePlane& plane,
                 std::vector<SchemeConfig> schemes,
                 obs::Hub* hub = nullptr, std::string dev = "");

    SchemeEngine(const SchemeEngine&) = delete;
    SchemeEngine& operator=(const SchemeEngine&) = delete;

    /** Reactive-plane standoff: while @p fn returns true the engine
     *  skips the interval entirely. */
    void setStandoff(std::function<bool()> fn)
    {
        standoff_ = std::move(fn);
    }

    /** Apply every scheme once for the interval that is about to
     *  close. @p interval is the aggregation period in ticks. */
    void onInterval(RegionSet& rs, sim::Tick interval);

    /**
     * Datapath fast path, called per sampled record by the monitor:
     * when @p key is a placed flow, its bytes this interval are tracked
     * here (feeding DemoteIdle/Cap) and the caller must keep it *out*
     * of the region's candidate election so regions surface their next
     * hottest flow instead.
     * @return true when the key is placed.
     */
    bool
    notePlacedTraffic(std::uint64_t key, std::uint64_t bytes)
    {
        const auto it = placed_.find(key);
        if (it == placed_.end())
            return false;
        it->second.bytes += bytes;
        return true;
    }

    // ------------------------------------------------------ statistics
    std::size_t placedCount() const { return placed_.size(); }
    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t quotaDeferred() const { return quotaDeferred_; }
    std::uint64_t standoffIntervals() const { return standoffs_; }
    std::uint64_t intervalsApplied() const { return intervalsApplied_; }

    /** Actions applied across all schemes (the counter-track probe). */
    std::uint64_t
    appliedTotal() const
    {
        std::uint64_t t = 0;
        for (const std::uint64_t v : appliedBy_)
            t += v;
        return t;
    }

    const std::vector<SchemeConfig>& schemes() const { return schemes_; }

  private:
    struct Placement
    {
        nic::FiveTuple flow;
        int qid = -1;
        std::uint64_t bytes = 0;    ///< Attributed bytes, this interval.
        std::uint64_t winBytes = 0; ///< Accumulated over the idle
                                    ///< evaluation window.
        int winAge = 0;             ///< Intervals into the window.
    };

    void applyPromote(std::size_t si, const RegionSet& rs,
                      std::uint64_t total_bytes);
    void applyDemoteIdle(std::size_t si, double per_sec);
    void applyCap(std::size_t si);
    void demote(std::uint64_t key);

    steer::SteerablePlane& plane_;
    std::vector<SchemeConfig> schemes_;
    std::string dev_;
    std::function<bool()> standoff_;

    std::unordered_map<std::uint64_t, Placement> placed_;
    std::vector<int> locals_; ///< DMA-local queue targets, refreshed
                              ///< each interval (health may move PFs).
    std::size_t rr_ = 0;      ///< Round-robin cursor over locals_.

    std::vector<std::uint64_t> appliedBy_; ///< Per-scheme actions.
    std::uint64_t promotions_ = 0;
    std::uint64_t demotions_ = 0;
    std::uint64_t quotaDeferred_ = 0;
    std::uint64_t standoffs_ = 0;
    std::uint64_t intervalsApplied_ = 0;
};

} // namespace octo::accmon
