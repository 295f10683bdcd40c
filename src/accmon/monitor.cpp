#include "accmon/monitor.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace octo::accmon {

AccessMonitor::AccessMonitor(sim::Simulator& sim, obs::Hub* hub,
                             std::string dev)
    : sim_(sim), hub_(hub), dev_(std::move(dev))
{
    // Calibrate the cycle counter: ns-per-cycle over a short bracketed
    // spin, then the average cost of one back-to-back counter pair
    // (pure measurement overhead — there is no work between the reads,
    // so subtracting the average cannot eat real record cost beyond
    // sampling noise).
    {
        const std::uint64_t n0 = nowNs();
        const std::uint64_t c0 = cycNow();
        while (nowNs() - n0 < 20000) {
        }
        const std::uint64_t c1 = cycNow();
        const std::uint64_t n1 = nowNs();
        nsPerCyc_ = c1 > c0 ? static_cast<double>(n1 - n0) /
                                  static_cast<double>(c1 - c0)
                            : 1.0;
        std::uint64_t sum = 0;
        constexpr int kPairs = 256;
        volatile unsigned spacer = 0;
        for (int i = 0; i < kPairs; ++i) {
            // Spacing work *outside* the bracket: in a tight loop
            // successive pairs overlap in the pipeline and understate
            // the isolated pair cost the in-situ samples actually pay.
            for (int k = 0; k < 32; ++k)
                spacer = spacer + 1;
            const std::uint64_t t0 = cycNow();
            sum += cycNow() - t0;
        }
        cycBias_ = sum / kPairs;
    }
    if (hub_ == nullptr)
        return;
    obs::MetricRegistry& reg = hub_->metrics();
    const obs::Labels l = {{"dev", dev_}};
    reg.gaugeFn("accmon_regions", l, [this] {
        return static_cast<double>(set_.regionCount());
    });
    reg.counterFn("accmon_splits_total", l,
                  [this] { return set_.splits(); });
    reg.counterFn("accmon_merges_total", l,
                  [this] { return set_.merges(); });
    reg.counterFn("accmon_intervals_total", l,
                  [this] { return set_.intervals(); });
    reg.counterFn("accmon_records_total", l,
                  [this] { return records_; });
    reg.counterFn("accmon_overhead_ns_total", l,
                  [this] { return overheadNs(); });
    reg.counterFn("accmon_snapshots_dropped_total", l,
                  [this] { return snapshotsDropped_; });
}

AccessMonitor::~AccessMonitor() { stop(); }

void
AccessMonitor::start()
{
    if (hub_ != nullptr) {
        tracePid_ = hub_->pidFor("accmon");
        laneNames_.reserve(kTraceLanes);
        for (int i = 0; i < kTraceLanes; ++i) {
            laneNames_.push_back("accmon_region_gbps[" +
                                 std::to_string(i) + "]");
        }
    }
    sim_.release(tick_);
    tick_ = sim_.schedulePeriodic(kAggregation, kAggregation,
                                  [this] { tick(); });
}

void
AccessMonitor::stop()
{
    sim_.release(tick_);
}

void
AccessMonitor::tick()
{
    // The whole tick is off the simulated datapath (a periodic event
    // that mutates only monitor state), so it is timed exactly.
    const std::uint64_t t0 = nowNs();

    // Schemes see the *open* interval: live byte counts and candidate
    // elections, plus the age/rate the previous close computed.
    if (engine_ != nullptr)
        engine_->onInterval(set_, kAggregation);

    set_.closeInterval(kAggregation);

    if (snapshots_.size() < kSnapshotCap) {
        obs::RegionSampleData& snap = snapshots_.emplace_back();
        snap.timeMs = sim::toMs(sim_.now());
        snap.rows.reserve(set_.regions().size());
        for (const Region& r : set_.regions())
            snap.rows.push_back({r.lo, r.hi, r.rateBps * 8.0 / 1e9, r.age});
    } else {
        ++snapshotsDropped_;
    }

    // Live heatmap: one Perfetto counter lane per region slot (slot i
    // = i-th region in hash order; splits/merges re-map slots, which
    // the lane view tolerates — the report snapshots carry the exact
    // ranges).
    if (hub_ != nullptr && hub_->tracer().wants(obs::kCatCounter)) {
        obs::Tracer& tr = hub_->tracer();
        const auto& rs = set_.regions();
        const std::size_t lanes = std::min(laneNames_.size(), rs.size());
        for (std::size_t i = 0; i < lanes; ++i) {
            tr.counter(obs::kCatCounter, laneNames_[i].c_str(), tracePid_,
                       sim_.now(), rs[i].rateBps * 8.0 / 1e9);
        }
    }

    tickNs_ += nowNs() - t0;
}

} // namespace octo::accmon
