/**
 * @file
 * Bounded heavy-hitter tracking: the Space-Saving algorithm (Metwally,
 * Agrawal, El Abbadi, ICDT'05) over integer keys, carrying an
 * arbitrary per-entry payload.
 *
 * The sketch holds at most K entries. A resident key's update is O(1);
 * a non-resident key replaces the minimum-weight entry, inheriting its
 * weight as the classic overestimate. The invariants tests pin:
 *
 *  - weight(k) >= true count of k            (never undercounts)
 *  - weight(k) - error(k) <= true count of k (bounded overcount)
 *  - any key whose true count exceeds the minimum resident weight is
 *    resident (heavy hitters cannot be missed)
 *
 * The payload is the *exact* bookkeeping accumulated while the key is
 * resident; on replacement the displaced entry (key + payload) is
 * handed back to the caller so it can be folded into an aggregate
 * row — this is what lets DmaAccountant keep byte conservation exact
 * while the identity of the tail churns.
 *
 * Eviction choice is deterministic: the lowest-index entry among the
 * minimum weights. Two identical update sequences produce identical
 * sketches (pinned by tests/obs/test_sketch.cpp).
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace octo::obs {

template <typename Payload>
class SpaceSaving
{
  public:
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t weight = 0; ///< Overestimated count for ranking.
        std::uint64_t error = 0;  ///< Weight inherited at admission.
        Payload payload{};        ///< Exact while resident.
    };

    /** What update() did with the key. */
    enum class Outcome
    {
        Updated,  ///< Key was resident; weight bumped.
        Admitted, ///< Free slot used; no displacement.
        Replaced, ///< Minimum entry displaced (see @p evicted).
    };

    explicit SpaceSaving(std::size_t k) : k_(k == 0 ? 1 : k) {}

    std::size_t capacity() const { return k_; }
    std::size_t size() const { return slots_.size(); }
    std::uint64_t evictions() const { return evictions_; }

    /** Sum of all update weights ever applied (conservation anchor). */
    std::uint64_t totalWeight() const { return totalWeight_; }

    /** Smallest resident weight; 0 when empty. The Space-Saving bound:
     *  no absent key's true count can exceed this. */
    std::uint64_t
    minWeight() const
    {
        if (slots_.empty())
            return 0;
        return slots_[minSlot()].weight;
    }

    Entry*
    find(std::uint64_t key)
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &slots_[it->second];
    }

    const Entry*
    find(std::uint64_t key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &slots_[it->second];
    }

    /**
     * Count @p w occurrences of @p key. When the sketch is full and
     * @p key is absent, the minimum-weight entry is displaced:
     * @p evicted receives its key and exact payload, moved out
     * *before* the slot is recycled, and the recycled entry inherits
     * the displaced weight as its error term.
     */
    Entry&
    update(std::uint64_t key, std::uint64_t w, Outcome& out,
           Entry& evicted)
    {
        totalWeight_ += w;
        if (Entry* e = find(key)) {
            e->weight += w;
            out = Outcome::Updated;
            return *e;
        }
        if (slots_.size() < k_) {
            index_.emplace(key, static_cast<std::uint32_t>(
                                    slots_.size()));
            slots_.push_back(Entry{key, w, 0, Payload{}});
            out = Outcome::Admitted;
            return slots_.back();
        }
        Entry& e = slots_[minSlot()];
        // Re-key the displaced key's index node in place: no
        // allocation, and its slot number stays the same.
        auto node = index_.extract(e.key);
        node.key() = key;
        index_.insert(std::move(node));
        ++evictions_;
        const std::uint64_t weight = e.weight;
        evicted = std::move(e);
        e.key = key;
        e.weight = weight + w;
        e.error = weight;
        e.payload = Payload{};
        out = Outcome::Replaced;
        return e;
    }

    /** Resident entries in slot order (admission order until churn). */
    const std::vector<Entry>& entries() const { return slots_; }

  private:
    std::size_t
    minSlot() const
    {
        std::size_t m = 0;
        for (std::size_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i].weight < slots_[m].weight)
                m = i;
        }
        return m;
    }

    std::size_t k_;
    std::vector<Entry> slots_;
    std::unordered_map<std::uint64_t, std::uint32_t> index_;
    std::uint64_t evictions_ = 0;
    std::uint64_t totalWeight_ = 0;
};

} // namespace octo::obs
