/**
 * @file
 * The region-based DMA access monitor (DAMON's design transplanted to
 * flow-hash space; see DESIGN.md §12).
 *
 * One AccessMonitor watches one device plane: the NIC datapath calls
 * record() once per received payload (offered demand — before ring
 * admission, after classification), the monitor aggregates it into a
 * bounded RegionSet, and a simulator-scheduled periodic tick closes
 * each aggregation interval: schemes fire, regions split/merge, a
 * region snapshot is captured for the report's `regions` section, and
 * Perfetto counter lanes stream the per-slot rates for a live heatmap.
 *
 * Overhead discipline (DAMON's): state and per-interval work are
 * bounded by RegionSet::kMaxRegions, full attribution runs on a sampled
 * subset of records (see kSampleEvery), and the monitor measures its
 * own wall-clock cost — sampled timings on the hook, exact timings on
 * every tick — into accmon_overhead_ns_total, so "the monitor stays
 * under N% of sim wall time" is a measured claim, not a hope.
 * Wall-clock never feeds simulated state.
 *
 * With no SchemeEngine attached the monitor is a pure observer: it
 * mutates nothing outside its own counters, so simulated results are
 * bit-identical with the monitor attached or not (pinned by
 * tests/accmon/test_monitor.cpp).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "accmon/region.hpp"
#include "accmon/scheme.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"

namespace octo::accmon {

class AccessMonitor
{
  public:
    /** Aggregation interval: each close derives rates, fires schemes,
     *  and reshapes the partition. */
    static constexpr sim::Tick kAggregation = sim::fromUs(1000);

    /**
     * DAMON's sampling transplanted: the datapath hook counts every
     * record, but only every Nth is fully attributed (region byte
     * accounting, candidate election, placed-flow tracking), with its
     * bytes scaled by N so rates and lifetime totals stay calibrated.
     * Sampling — not cleverness on the full-attribution path — is what
     * keeps self-cost a small bounded fraction of datapath time, which
     * is exactly DAMON's overhead argument (its default samples ~1/20
     * of the monitored time).
     */
    static constexpr std::uint32_t kSampleEvery = 16;

    /** Region snapshots kept for report.json's `regions` section, one
     *  per interval; later intervals are counted as dropped. */
    static constexpr std::size_t kSnapshotCap = 512;

    /** Perfetto counter lanes (region slots) streamed per tick. */
    static constexpr int kTraceLanes = 16;

    /** Record calls between self-cost timing samples. Co-prime with
     *  kSampleEvery so timing samples sweep both the skip path and the
     *  attribution path instead of phase-locking onto one of them. */
    static constexpr std::uint64_t kSelfSamplePeriod = 31;

    /** Timing samples above this many cycles (net of pair bias) are
     *  discarded as preemption noise. */
    static constexpr std::uint64_t kOutlierCyc = 4096;

    /** @p hub may be null: the monitor still runs (regions, schemes,
     *  snapshots) with its instruments simply unregistered. */
    AccessMonitor(sim::Simulator& sim, obs::Hub* hub, std::string dev);
    ~AccessMonitor();

    AccessMonitor(const AccessMonitor&) = delete;
    AccessMonitor& operator=(const AccessMonitor&) = delete;

    /** Arm the periodic aggregation tick. */
    void start();

    /** Disarm the tick (the RegionSet stays readable). */
    void stop();

    /** Attach/detach the scheme engine consulted every interval. */
    void setEngine(SchemeEngine* e) { engine_ = e; }
    SchemeEngine* engine() { return engine_; }

    /**
     * Datapath hook: attribute one received payload of @p bytes for
     * @p flow classified to queue @p qid. Pure accounting — never
     * awaits, never schedules, never touches model state.
     *
     * Every record is counted; every kSampleEvery'th is attributed on
     * the spot, its bytes scaled by kSampleEvery.
     */
    void
    record(const nic::FiveTuple& flow, std::uint32_t bytes, int qid)
    {
        const bool timed = timerSkip_-- == 0;
        const std::uint64_t t0 = timed ? cycNow() : 0;
        ++records_;
        if (--sampleSkip_ == 0) {
            sampleSkip_ = kSampleEvery;
            const std::uint64_t key = flow.hash();
            const std::uint64_t b = std::uint64_t{bytes} * kSampleEvery;
            // Placed flows are tracked by the engine and kept out of
            // candidate elections (the region should surface its next
            // hottest flow, not re-elect one already pinned local).
            const bool placed =
                engine_ != nullptr && engine_->notePlacedTraffic(key, b);
            set_.record(key, b, flow, qid, !placed);
        }
        if (timed) {
            timerSkip_ = kSelfSamplePeriod - 1;
            // Subtract the calibrated cost of the counter pair itself
            // (scaled by the sampling factor it would otherwise
            // dominate the estimate), and drop samples a preemption
            // landed inside: the hook is tens to hundreds of cycles
            // even from DRAM, so a reading beyond kOutlierCyc measures
            // the scheduler, not the monitor — and the 31x scaling
            // would turn one such tail into milliseconds of phantom
            // cost.
            const std::uint64_t d = cycNow() - t0;
            if (d > cycBias_ && d - cycBias_ < kOutlierCyc) {
                overheadCyc_ += (d - cycBias_) * kSelfSamplePeriod;
            }
        }
    }

    const RegionSet& regions() const { return set_; }
    const std::string& dev() const { return dev_; }

    /** One region map per closed interval, in the report's own type. */
    const std::vector<obs::RegionSampleData>& snapshots() const
    {
        return snapshots_;
    }

    // ------------------------------------------------------ statistics
    std::uint64_t recordsSeen() const { return records_; }
    std::uint64_t intervals() const { return set_.intervals(); }
    std::uint64_t splits() const { return set_.splits(); }
    std::uint64_t merges() const { return set_.merges(); }

    /** Estimated wall ns spent in the monitor (sampled hook + exact
     *  tick path) — the self-cost bound's numerator. */
    std::uint64_t
    overheadNs() const
    {
        return tickNs_ + static_cast<std::uint64_t>(
                             static_cast<double>(overheadCyc_) *
                             nsPerCyc_);
    }

  private:
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Fast cycle counter for the per-record samples; the tick path
     *  (rare) uses nowNs() directly. Falls back to nowNs() where no
     *  TSC exists — nsPerCyc_ then calibrates to ~1. */
    static std::uint64_t
    cycNow()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_ia32_rdtsc();
#else
        return nowNs();
#endif
    }

    void tick();

    sim::Simulator& sim_;
    obs::Hub* hub_;
    std::string dev_;
    RegionSet set_;
    SchemeEngine* engine_ = nullptr;

    // The hook's hot counters, grouped so the skip path (the common
    // case) touches a single cache line — the monitor's lines are
    // evicted between datapath records, so every extra line is a real
    // miss, not a nanosecond.
    std::uint64_t records_ = 0;
    std::uint32_t sampleSkip_ = 1; ///< Records until the next sample.
    std::uint32_t timerSkip_ = 0;  ///< Records until the next timing.

    std::vector<obs::RegionSampleData> snapshots_;
    std::vector<std::string> laneNames_; ///< Cached counter-lane names.
    int tracePid_ = 0;

    std::uint64_t cycBias_ = 0;  ///< Average cycNow() pair cost.
    double nsPerCyc_ = 1.0;      ///< Cycle -> wall-ns conversion.
    std::uint64_t overheadCyc_ = 0; ///< Sampled hook cycles.
    std::uint64_t tickNs_ = 0;      ///< Exactly-timed tick-path ns.
    std::uint64_t snapshotsDropped_ = 0;
    sim::EventRef tick_;
};

} // namespace octo::accmon
