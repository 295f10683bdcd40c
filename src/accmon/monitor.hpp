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
 * Overhead discipline (the DAMON property the acceptance criteria
 * pin): state and per-interval work are bounded by maxRegions, full
 * attribution runs on a sampled, batched subset of records (see
 * MonitorConfig::sampleEvery), and the monitor measures its own
 * wall-clock cost — sampled timings on the hook, exact timings on
 * every flush batch and tick — into accmon_overhead_ns_total, so "the
 * monitor stays under N% of sim wall time" is a measured claim, not a
 * hope. Wall-clock never feeds simulated state.
 *
 * With no SchemeEngine attached the monitor is a pure observer: it
 * mutates nothing outside its own counters, so simulated results are
 * bit-identical with the monitor attached or not (pinned by
 * tests/accmon/test_monitor.cpp).
 */
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "accmon/region.hpp"
#include "accmon/scheme.hpp"
#include "obs/hub.hpp"
#include "sim/simulator.hpp"

namespace octo::accmon {

/** Monitor tunables. */
struct MonitorConfig
{
    /** Aggregation interval: each close derives rates, fires schemes,
     *  and reshapes the partition. */
    sim::Tick aggregation = sim::fromUs(1000);

    /**
     * DAMON's sampling transplanted: the datapath hook counts every
     * record, but only every Nth is fully attributed (region byte
     * accounting, candidate election, placed-flow tracking), with its
     * bytes scaled by N so rates and lifetime totals stay calibrated.
     * Sampling — not cleverness on the full-attribution path — is what
     * keeps self-cost a small bounded fraction of datapath time, which
     * is exactly DAMON's overhead argument (its default samples ~1/20
     * of the monitored time). 1 attributes every record exactly (the
     * conservation tests use this).
     */
    int sampleEvery = 16;

    RegionConfig regions;

    /** Capture one region snapshot per interval for report.json's
     *  `regions` section (bounded by snapshotCap). */
    bool captureSnapshots = true;
    int snapshotCap = 512;

    /** Perfetto counter lanes (region slots) streamed per tick; 0
     *  disables the lanes. */
    int traceLanes = 16;
};

/** One region's row in a captured snapshot (report schema v2). */
struct RegionRow
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    double rateGbps = 0.0;
    std::uint32_t age = 0;
};

/** All regions at one aggregation-interval close. */
struct RegionSnapshot
{
    double timeMs = 0.0;
    std::vector<RegionRow> rows;
};

class AccessMonitor
{
  public:
    /** Record calls between self-cost timing samples. Deliberately
     *  co-prime with the power-of-two sampleEvery defaults so timing
     *  samples sweep both the skip path and the append path instead of
     *  phase-locking onto one of them. */
    static constexpr std::uint64_t kSelfSamplePeriod = 31;

    /** Timing samples above this many cycles (net of pair bias) are
     *  discarded as preemption noise. */
    static constexpr std::uint64_t kOutlierCyc = 4096;

    /** @p hub may be null: the monitor still runs (regions, schemes,
     *  snapshots) with its instruments simply unregistered. */
    AccessMonitor(sim::Simulator& sim, obs::Hub* hub, std::string dev,
                  MonitorConfig cfg = {});
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
     * The hook itself only counts the record and — for every
     * sampleEvery'th one — appends it to a small L1-resident buffer;
     * the region/placement work runs batched in flush(), so the
     * monitor's working set is pulled into cache once per kBatch
     * sampled records instead of once per record interleaved with the
     * (cache-hostile) rest of the datapath. Placements only change
     * inside the aggregation tick — which flushes first — so batched
     * processing is record-for-record identical to unbatched.
     */
    void
    record(const nic::FiveTuple& flow, std::uint32_t bytes, int qid)
    {
        const bool timed = timerSkip_-- == 0;
        const std::uint64_t t0 = timed ? cycNow() : 0;
        ++records_;
        if (--sampleSkip_ == 0) {
            sampleSkip_ = static_cast<std::uint32_t>(scale_);
            Pending& p = buf_[static_cast<std::size_t>(bufN_++)];
            p.bytes = bytes;
            p.qid = qid;
            p.flow = flow;
        }
        if (timed) {
            timerSkip_ = kSelfSamplePeriod - 1;
            // Subtract the calibrated cost of the counter pair itself
            // (scaled by the sampling factor it would otherwise
            // dominate the estimate), and drop samples a preemption
            // landed inside: the hook is tens of cycles even from
            // DRAM, so a reading beyond kOutlierCyc measures the
            // scheduler, not the monitor — and the 31x scaling would
            // turn one such tail into milliseconds of phantom cost.
            const std::uint64_t d = cycNow() - t0;
            if (d > cycBias_ && d - cycBias_ < kOutlierCyc) {
                overheadCyc_ += (d - cycBias_) * kSelfSamplePeriod;
            }
        }
        if (bufN_ == kBatch)
            flush();
    }

    /** Drain the record buffer into the RegionSet/engine. Timed as a
     *  whole batch (two clock reads per kBatch records, so the clock
     *  cost cannot skew the estimate). */
    void
    flush()
    {
        if (bufN_ == 0)
            return;
        const std::uint64_t t0 = nowNs();
        // Pass 1: hash each flow (deferred from the append path — the
        // buffer streams through here anyway), resolve every region
        // index (the packed-bounds search stays in L1), and issue
        // write-intent prefetches for the region and placed-slot lines
        // each record will touch, so pass 2's misses overlap instead
        // of serializing.
        std::array<int, kBatch> idx;
        for (int i = 0; i < bufN_; ++i) {
            Pending& p = buf_[static_cast<std::size_t>(i)];
            p.key = p.flow.hash();
            idx[static_cast<std::size_t>(i)] = set_.prefetch(p.key);
            if (engine_ != nullptr)
                engine_->prefetchPlaced(p.key);
        }
        // Pass 2: apply against warm lines, scaling each sampled
        // record's bytes by the sampling factor so rates stay
        // calibrated.
        for (int i = 0; i < bufN_; ++i) {
            const Pending& p = buf_[static_cast<std::size_t>(i)];
            const std::uint64_t b = p.bytes * scale_;
            // Placed flows are tracked by the engine and kept out of
            // candidate elections (the region should surface its next
            // hottest flow, not re-elect one already pinned local).
            const bool placed = engine_ != nullptr &&
                                engine_->notePlacedTraffic(p.key, b);
            set_.recordAt(idx[static_cast<std::size_t>(i)], p.key, b,
                          p.flow, p.qid, !placed);
        }
        bufN_ = 0;
        recordNs_ += nowNs() - t0;
    }

    const RegionSet& regions() const { return set_; }
    const MonitorConfig& config() const { return cfg_; }
    const std::string& dev() const { return dev_; }

    const std::vector<RegionSnapshot>& snapshots() const
    {
        return snapshots_;
    }

    // ------------------------------------------------------ statistics
    std::uint64_t recordsSeen() const { return records_; }
    std::uint64_t intervals() const { return set_.intervals(); }
    std::uint64_t splits() const { return set_.splits(); }
    std::uint64_t merges() const { return set_.merges(); }

    /** Estimated wall ns spent in the monitor (sampled record path +
     *  exact tick path) — the self-cost bound's numerator. */
    std::uint64_t
    overheadNs() const
    {
        return tickNs_ + recordNs_ +
               static_cast<std::uint64_t>(
                   static_cast<double>(overheadCyc_) * nsPerCyc_);
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

    /** One buffered datapath record awaiting flush(). */
    struct Pending
    {
        std::uint64_t key = 0;
        std::uint32_t bytes = 0;
        int qid = -1;
        nic::FiveTuple flow{};
    };

    /** Record-buffer depth: 8 KB of hot state, small enough to stay
     *  L1-resident between datapath appends. */
    static constexpr int kBatch = 256;

    sim::Simulator& sim_;
    obs::Hub* hub_;
    std::string dev_;
    MonitorConfig cfg_;
    RegionSet set_;
    SchemeEngine* engine_ = nullptr;

    // The hook's hot counters, grouped so the skip path (the common
    // case at default sampling) touches a single cache line — the
    // monitor's lines are evicted between datapath records, so every
    // extra line is a real miss, not a nanosecond.
    std::uint64_t records_ = 0;
    std::uint64_t scale_ = 1;   ///< cfg_.sampleEvery, clamped >= 1.
    std::uint32_t sampleSkip_ = 1; ///< Records until the next sample.
    std::uint32_t timerSkip_ = 0;  ///< Records until the next timing.
    int bufN_ = 0;
    std::array<Pending, kBatch> buf_{};

    std::vector<RegionSnapshot> snapshots_;
    std::vector<std::string> laneNames_; ///< Cached counter-lane names.
    int tracePid_ = 0;

    std::uint64_t cycBias_ = 0;  ///< Average cycNow() pair cost.
    double nsPerCyc_ = 1.0;      ///< Cycle -> wall-ns conversion.
    std::uint64_t overheadCyc_ = 0; ///< Sampled append-path cycles.
    std::uint64_t recordNs_ = 0;    ///< Exactly-timed flush batches.
    std::uint64_t tickNs_ = 0;      ///< Exactly-timed tick-path ns.
    std::uint64_t snapshotsDropped_ = 0;
    sim::EventRef tick_;
};

} // namespace octo::accmon
