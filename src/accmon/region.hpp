/**
 * @file
 * Region algebra for the DAMON-style access monitor.
 *
 * The monitored "address space" is the 64-bit flow-hash space of one
 * device plane: every flow RSS-hashes to a point in [0, 2^64-1], so a
 * *region* — a contiguous inclusive hash range — aggregates the DMA
 * demand of the flows hashing into it, exactly as a DAMON region
 * aggregates the access frequency of a virtual-address range.
 *
 * A RegionSet keeps a sorted, gap-free partition of the full key space.
 * The datapath feeds it with record() (binary search, O(log R)); the
 * monitor closes an aggregation interval with closeInterval(), which
 *
 *  - derives each region's byte rate for the closed window,
 *  - **splits** regions whose share of the interval's traffic exceeds
 *    kSplitFactor/kTargetRegions (midpoint split, deterministic), and
 *  - **merges** adjacent regions whose combined share falls below
 *    kMergeFactor/kTargetRegions,
 *
 * keeping the region count inside [kMinRegions, kMaxRegions] and state
 * + per-interval work bounded by kMaxRegions regardless of flow count.
 * Lifetime byte totals (`cumBytes`) are conserved exactly across every
 * split (128-bit proportional division) and merge, which the tests pin.
 *
 * Each region also runs a Misra-Gries style majority election over the
 * keys recorded into it, so a hot region can name the one flow (and
 * its current queue) that dominates it — the handle the scheme engine
 * needs to act at flow grain where DAMON's page-grain actions act on
 * the whole region. Keys the caller has already placed are excluded
 * from the election by the datapath (see AccessMonitor::record), so a
 * region keeps surfacing its *next* hottest flow as promotions drain
 * the head of the popularity distribution.
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "nic/flow.hpp"
#include "sim/time.hpp"

namespace octo::accmon {

/** One contiguous flow-hash range and its per-interval demand. */
struct Region
{
    std::uint64_t lo = 0; ///< Inclusive range start.
    std::uint64_t hi = 0; ///< Inclusive range end.

    // ---------------------------------------- current (open) interval
    std::uint64_t bytes = 0; ///< Bytes recorded this interval.
    std::uint64_t ops = 0;   ///< Records this interval.

    // ------------------------------------------------- closed-interval
    double rateBps = 0.0;    ///< Byte rate of the last closed interval.
    std::uint32_t age = 0;   ///< Intervals since this region was last
                             ///< split or merged (stability measure).

    /** Lifetime bytes attributed to this range (conserved exactly
     *  across split/merge — the invariant the tests pin). */
    std::uint64_t cumBytes = 0;

    // -------------------------- hottest-flow candidate (Misra-Gries)
    bool candValid = false;
    std::uint64_t candKey = 0;
    std::uint64_t candBytes = 0; ///< Election lead, not an exact count.
    nic::FiveTuple candFlow{};
    int candQid = -1;

    std::uint64_t width() const { return hi - lo; } ///< Exact span - 1.

    bool
    contains(std::uint64_t key) const
    {
        return key >= lo && key <= hi;
    }
};

/** The adaptive partition of one device plane's flow-hash space. */
class RegionSet
{
  public:
    // Split/merge bounds in DAMON's shape: min/target/max region counts
    // bound both state and per-interval work.
    static constexpr int kMinRegions = 8;
    static constexpr int kTargetRegions = 64;
    static constexpr int kMaxRegions = 128;
    static_assert(1 <= kMinRegions && kMinRegions <= kTargetRegions &&
                  kTargetRegions <= kMaxRegions);

    /** Split when region share > kSplitFactor / kTargetRegions. */
    static constexpr double kSplitFactor = 2.0;

    /** Merge adjacent pair when combined share < kMergeFactor /
     *  kTargetRegions. */
    static constexpr double kMergeFactor = 0.5;

    RegionSet()
    {
        Region whole;
        whole.lo = 0;
        whole.hi = UINT64_MAX;
        regions_.push_back(whole);
        rebuildLos();
    }

    const std::vector<Region>& regions() const { return regions_; }
    int regionCount() const { return static_cast<int>(regions_.size()); }

    /** Index of the region containing @p key. The search runs over the
     *  packed lo-bounds mirror (`los_`), not the fat Region structs:
     *  at kMaxRegions = 128 that is two cache lines' worth of keys, so
     *  the datapath-rate lookups stay L1-resident. */
    int
    find(std::uint64_t key) const
    {
        return static_cast<int>(std::upper_bound(los_.begin() + 1,
                                                 los_.end(), key) -
                                los_.begin()) -
               1;
    }

    /**
     * Attribute @p bytes at @p key. When @p track_candidate, the record
     * also competes in the region's hottest-flow election with
     * (@p flow, @p qid) as the would-be winner's identity.
     */
    void
    record(std::uint64_t key, std::uint64_t bytes,
           const nic::FiveTuple& flow, int qid, bool track_candidate)
    {
        Region& r = regions_[static_cast<std::size_t>(find(key))];
        assert(r.contains(key));
        r.bytes += bytes;
        ++r.ops;
        r.cumBytes += bytes;
        totalCum_ += bytes;
        if (!track_candidate)
            return;
        // Misra-Gries lead: a key matching the incumbent reinforces it;
        // a different key either dethrones a weaker incumbent or eats
        // into its lead. One comparison per record, O(1) state.
        if (r.candValid && r.candKey == key) {
            r.candBytes += bytes;
        } else if (!r.candValid || r.candBytes <= bytes) {
            r.candValid = true;
            r.candKey = key;
            r.candBytes = bytes;
            r.candFlow = flow;
            r.candQid = qid;
        } else {
            r.candBytes -= bytes;
        }
    }

    /**
     * Close the aggregation interval of length @p interval ticks:
     * compute rates, split hot / merge cold, then reset the interval
     * counters and candidate elections. Work is O(kMaxRegions).
     */
    void
    closeInterval(sim::Tick interval)
    {
        assert(interval > 0);
        std::uint64_t total = 0;
        for (const Region& r : regions_)
            total += r.bytes;

        const double per_sec =
            static_cast<double>(sim::kTickPerSec) /
            static_cast<double>(interval);
        for (Region& r : regions_) {
            r.rateBps = static_cast<double>(r.bytes) * per_sec;
            ++r.age;
        }

        splitPass(total);
        mergePass(total);
        rebuildLos();
        ++intervals_;

        for (Region& r : regions_) {
            r.bytes = 0;
            r.ops = 0;
            r.candValid = false;
            r.candBytes = 0;
        }
    }

    // ------------------------------------------------------ statistics
    std::uint64_t splits() const { return splits_; }
    std::uint64_t merges() const { return merges_; }
    std::uint64_t intervals() const { return intervals_; }

    /** Lifetime bytes across all regions; equals the sum of every
     *  record()ed byte no matter how the partition evolved. */
    std::uint64_t totalCumBytes() const { return totalCum_; }

  private:
    void
    rebuildLos()
    {
        los_.resize(regions_.size());
        for (std::size_t i = 0; i < regions_.size(); ++i)
            los_[i] = regions_[i].lo;
    }

    void
    splitPass(std::uint64_t total)
    {
        if (total == 0)
            return;
        // share > kSplitFactor / target  <=>  bytes * target > f * total.
        const double thresh = kSplitFactor * static_cast<double>(total);
        std::vector<Region>& next = scratch_;
        next.clear();
        next.reserve(regions_.size() + 8);
        for (std::size_t i = 0; i < regions_.size(); ++i) {
            Region& r = regions_[i];
            const bool hot =
                static_cast<double>(r.bytes) * kTargetRegions > thresh;
            // Count if this split happens: emitted so far + the rest
            // of the input + the extra half.
            const std::size_t projected =
                next.size() + (regions_.size() - i) + 1;
            if (!hot || r.width() == 0 || projected > kMaxRegions) {
                next.push_back(r);
                continue;
            }
            next.push_back(splitAt(r, r.lo + r.width() / 2));
            next.push_back(r); // r is now the upper half.
            ++splits_;
        }
        regions_.swap(next); // next is scratch_: reused, never freed.
    }

    /** Carve [r.lo, mid] out of @p r (which becomes [mid+1, r.hi]),
     *  dividing the counters proportionally to sub-width with exact
     *  128-bit arithmetic so cumBytes is conserved to the byte. */
    Region
    splitAt(Region& r, std::uint64_t mid)
    {
        assert(mid >= r.lo && mid < r.hi);
        Region left = r;
        left.hi = mid;
        // width()+1 can wrap for the whole-space region; the +1 terms
        // cancel in the ratio at this scale, so use width() directly.
        const unsigned __int128 lw = left.width();
        const unsigned __int128 tw = r.width();
        const auto portion = [&](std::uint64_t v) {
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(v) * lw) / tw);
        };
        left.bytes = portion(r.bytes);
        left.ops = portion(r.ops);
        left.cumBytes = portion(r.cumBytes);
        r.bytes -= left.bytes;
        r.ops -= left.ops;
        r.cumBytes -= left.cumBytes;
        r.lo = mid + 1;
        left.age = 0;
        r.age = 0;
        // The election winner stays with the half holding its key.
        if (left.candValid && left.candKey > mid) {
            left.candValid = false;
            left.candBytes = 0;
        }
        if (r.candValid && r.candKey <= mid) {
            r.candValid = false;
            r.candBytes = 0;
        }
        return left;
    }

    void
    mergePass(std::uint64_t total)
    {
        const double thresh = kMergeFactor * static_cast<double>(total);
        std::vector<Region>& next = scratch_;
        next.clear();
        next.reserve(regions_.size());
        next.push_back(regions_.front());
        for (std::size_t i = 1; i < regions_.size(); ++i) {
            Region& prev = next.back();
            const Region& cur = regions_[i];
            const int remaining = static_cast<int>(
                next.size() + (regions_.size() - i));
            const bool cold =
                total == 0 ? remaining > kTargetRegions
                           : static_cast<double>(prev.bytes + cur.bytes) *
                                     kTargetRegions <
                                 thresh;
            if (!cold || remaining <= kMinRegions) {
                next.push_back(cur);
                continue;
            }
            // Merge cur into prev; counters add, the stronger election
            // survives, age restarts (the range changed shape).
            prev.hi = cur.hi;
            prev.bytes += cur.bytes;
            prev.ops += cur.ops;
            prev.cumBytes += cur.cumBytes;
            prev.rateBps += cur.rateBps;
            prev.age = 0;
            if (cur.candValid &&
                (!prev.candValid || cur.candBytes > prev.candBytes)) {
                prev.candValid = cur.candValid;
                prev.candKey = cur.candKey;
                prev.candBytes = cur.candBytes;
                prev.candFlow = cur.candFlow;
                prev.candQid = cur.candQid;
            }
            ++merges_;
        }
        regions_.swap(next); // next is scratch_: reused, never freed.
    }

    std::vector<Region> regions_;
    std::vector<Region> scratch_; ///< Split/merge build space, reused
                                  ///< across intervals (no per-tick
                                  ///< allocation).
    std::vector<std::uint64_t> los_; ///< regions_[i].lo, packed for
                                     ///< the find() binary search.
    std::uint64_t splits_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t intervals_ = 0;
    std::uint64_t totalCum_ = 0;
};

} // namespace octo::accmon
