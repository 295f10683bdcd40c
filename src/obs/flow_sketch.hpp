/**
 * @file
 * Bounded heavy-hitter tracking: the Space-Saving algorithm (Metwally,
 * Agrawal, El Abbadi, ICDT'05) over integer keys, carrying an
 * arbitrary per-entry payload.
 *
 * The sketch holds at most K entries. A resident key's update is O(1)
 * until the sketch is full and O(log K) after; a non-resident key
 * replaces the minimum-weight entry, inheriting its weight as the
 * classic overestimate. The invariants tests pin:
 *
 *  - weight(k) >= true count of k            (never undercounts)
 *  - weight(k) - error(k) <= true count of k (bounded overcount)
 *  - any key whose true count exceeds the minimum resident weight is
 *    resident (heavy hitters cannot be missed)
 *
 * The payload is the *exact* bookkeeping accumulated while the key is
 * resident. On replacement the sketch reports the displaced key and
 * leaves its payload in the recycled slot, so the caller can fold it
 * into an aggregate row and reset it in place — this is what lets
 * DmaAccountant keep byte conservation exact while the identity of
 * the tail churns.
 *
 * Eviction choice is deterministic: the lowest slot index among the
 * minimum weights. Once the sketch is full, a binary min-heap of slots
 * ordered by (weight, slot) keeps that choice at its root, so an
 * eviction costs O(log K) instead of a scan. Each heap node carries a
 * copy of its slot's weight, so the compares read the heap alone.
 * Each slot's key and weight sit side by side in one dense array for
 * the index probes; the index is an open-addressed table of slot
 * numbers. Two identical update sequences produce identical sketches
 * (pinned by tests/obs/test_sketch.cpp).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace octo::obs {

template <typename Payload>
class SpaceSaving
{
  public:
    /** A resident entry as entries() reports it. */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t weight = 0; ///< Overestimated count for ranking.
        std::uint64_t error = 0;  ///< Weight inherited at admission.

        bool operator==(const Entry&) const = default;
    };

    /** What update() did with the key. */
    enum class Outcome
    {
        Updated,  ///< Key was resident; weight bumped.
        Admitted, ///< Free slot used; no displacement.
        Replaced, ///< Minimum entry displaced (see @p evicted).
    };

    explicit SpaceSaving(std::size_t k)
        : index_(std::size_t{1} << kMinBits, kEmpty), k_(k == 0 ? 1 : k)
    {
    }

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
        std::uint64_t m = slots_.empty() ? 0 : slots_[0].weight;
        for (const Slot& s : slots_)
            m = s.weight < m ? s.weight : m;
        return m;
    }

    /** @p key's payload; null when the key is not resident. */
    const Payload*
    find(std::uint64_t key) const
    {
        const std::uint32_t s = slotOf(key);
        return s == kEmpty ? nullptr : &payloads_[s];
    }

    /**
     * Count @p w occurrences of @p key and return its payload. When
     * the sketch is full and @p key is absent, the minimum-weight
     * entry is displaced: @p evicted receives its key, the slot takes
     * @p key with the displaced weight as its error term, and the
     * returned payload is the displaced one, left as it was for the
     * caller to fold and reset. An admitted key gets a default
     * payload.
     */
    Payload&
    update(std::uint64_t key, std::uint64_t w, Outcome& out,
           std::uint64_t& evicted)
    {
        totalWeight_ += w;
        std::uint32_t s = slotOf(key);
        if (s != kEmpty) {
            slots_[s].weight += w;
            if (!heap_.empty()) {
                const std::uint32_t i = pos_[s];
                heap_[i].weight = slots_[s].weight;
                siftDown(i);
            }
            out = Outcome::Updated;
            return payloads_[s];
        }
        if (size() < k_) {
            s = static_cast<std::uint32_t>(size());
            slots_.push_back(Slot{key, w});
            errors_.push_back(0);
            payloads_.emplace_back();
            indexInsert(key, s);
            if (size() == k_)
                buildHeap();
            out = Outcome::Admitted;
            return payloads_[s];
        }
        Node& root = heap_[0];
        s = root.slot;
        Slot& slot = slots_[s];
        evicted = slot.key;
        indexErase(evicted);
        slot.key = key;
        indexInsert(key, s);
        ++evictions_;
        errors_[s] = slot.weight;
        slot.weight += w;
        root.weight = slot.weight;
        siftDown(0);
        out = Outcome::Replaced;
        return payloads_[s];
    }

    /** Resident entries in slot order (admission order until churn). */
    std::vector<Entry>
    entries() const
    {
        std::vector<Entry> out;
        out.reserve(size());
        for (std::size_t s = 0; s < size(); ++s)
            out.push_back(Entry{slots_[s].key, slots_[s].weight, errors_[s]});
        return out;
    }

    /** Payload of slot @p s (< size()); slots never move. */
    const Payload& payload(std::size_t s) const { return payloads_[s]; }

  private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    static constexpr int kMinBits = 4; ///< log2 of the first table.

    struct Slot
    {
        std::uint64_t key;
        std::uint64_t weight; ///< Overestimated count for ranking.
    };

    // --- Index: open addressing with linear probing over a
    // power-of-two bucket array of slot numbers, at most half full.

    /** Home bucket: multiplicative hashing, so small integer keys
     *  (NVMe SQ ids) spread as well as flow hashes. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        shift_);
    }

    std::size_t mask() const { return index_.size() - 1; }

    std::uint32_t
    slotOf(std::uint64_t key) const
    {
        for (std::size_t b = home(key);; b = (b + 1) & mask()) {
            const std::uint32_t s = index_[b];
            if (s == kEmpty || slots_[s].key == key)
                return s;
        }
    }

    /** Map absent @p key to slot @p s, doubling the table first when
     *  size() would pass half of it. */
    void
    indexInsert(std::uint64_t key, std::uint32_t s)
    {
        if (2 * size() > index_.size()) {
            index_.assign(2 * index_.size(), kEmpty);
            --shift_;
            for (std::uint32_t r = 0; r < size(); ++r) {
                if (r != s)
                    place(slots_[r].key, r);
            }
        }
        place(key, s);
    }

    void
    place(std::uint64_t key, std::uint32_t s)
    {
        std::size_t b = home(key);
        while (index_[b] != kEmpty)
            b = (b + 1) & mask();
        index_[b] = s;
    }

    /** Remove resident @p key by backward shift: each later member of
     *  its probe run whose home does not lie between the hole and
     *  itself moves into the hole, so no tombstone is left. */
    void
    indexErase(std::uint64_t key)
    {
        std::size_t hole = home(key);
        while (slots_[index_[hole]].key != key)
            hole = (hole + 1) & mask();
        for (std::size_t b = (hole + 1) & mask(); index_[b] != kEmpty;
             b = (b + 1) & mask()) {
            const std::size_t h = home(slots_[index_[b]].key);
            if (((b - h) & mask()) >= ((b - hole) & mask())) {
                index_[hole] = index_[b];
                hole = b;
            }
        }
        index_[hole] = kEmpty;
    }

    // --- Eviction heap, built when the sketch fills. Weights only
    // grow, so a changed node only ever sifts down.

    /** A heap entry: slot @p slot and a copy of its weight. */
    struct Node
    {
        std::uint64_t weight;
        std::uint32_t slot;

        bool
        operator<(const Node& o) const
        {
            return weight < o.weight ||
                   (weight == o.weight && slot < o.slot);
        }
    };

    void
    buildHeap()
    {
        heap_.resize(k_);
        pos_.resize(k_);
        for (std::uint32_t s = 0; s < k_; ++s) {
            heap_[s] = Node{slots_[s].weight, s};
            pos_[s] = s;
        }
        for (std::size_t i = k_ / 2; i-- > 0;)
            siftDown(i);
    }

    void
    siftDown(std::size_t i)
    {
        const Node n = heap_[i];
        for (;;) {
            std::size_t c = 2 * i + 1;
            if (c >= k_)
                break;
            if (c + 1 < k_ && heap_[c + 1] < heap_[c])
                ++c;
            if (!(heap_[c] < n))
                break;
            heap_[i] = heap_[c];
            pos_[heap_[i].slot] = static_cast<std::uint32_t>(i);
            i = c;
        }
        heap_[i] = n;
        pos_[n.slot] = static_cast<std::uint32_t>(i);
    }

    // What every update reads comes first, to share cache lines.
    std::vector<std::uint32_t> index_;  ///< Buckets: slot or kEmpty.
    int shift_ = 64 - kMinBits;         ///< 64 - log2(index_.size()).
    std::vector<Slot> slots_;           ///< Key and weight per slot.
    std::vector<Payload> payloads_;     ///< Per slot.
    std::uint64_t totalWeight_ = 0;
    std::vector<Node> heap_;            ///< Root: the next victim.
    std::vector<std::uint32_t> pos_;    ///< Slot -> heap position.
    std::size_t k_;
    std::vector<std::uint64_t> errors_; ///< Per slot.
    std::uint64_t evictions_ = 0;
};

} // namespace octo::obs
