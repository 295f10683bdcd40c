/**
 * @file
 * Sharded counter tree: contention-free hot-path counting with
 * hierarchical aggregation at read time.
 *
 * The percpu-counter-tree idea (Linux core-api), adapted to the DES:
 * a ShardedCounter keeps one cache-line-aligned leaf cell per
 * scheduling-domain NUMA node (plus one untagged leaf). add() indexes
 * the leaf by the simulator's currentDomain() — the domain of the
 * event being dispatched — so every increment is O(1), touches only
 * the node-private line, and never contends with another node's
 * counting. Reads fold the leaves into the root sum; exporters and
 * sampler probes run off the hot path, so the fold cost lands where
 * it belongs.
 *
 * Today's event loop is serial, so sharding buys cache locality and
 * the *shape* the parallel-DES partition needs (DESIGN.md §11: domains
 * are the partition boundary — a per-partition leaf means no
 * cross-partition counter writes). The aggregation contract is what
 * the rest of this PR builds on: total() is exact and deterministic,
 * so adopting ShardedCounter under an existing metric cannot change
 * an exported value.
 *
 * Registered into a MetricRegistry via mirror(): the registry row is a
 * callback counter reading total(), identical in name/labels/value to
 * the plain cell it replaces (golden exports stay byte-identical).
 */
#pragma once

#include <array>
#include <cstdint>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace octo::obs {

class ShardedCounter
{
  public:
    /** Leaf cells: one per NUMA node 0..kMaxNode, plus slot 0 for
     *  untagged-domain adds. Sized for the 4-socket/SNC topologies the
     *  ROADMAP targets; higher node ids fold into the untagged leaf
     *  (the sum stays exact either way). */
    static constexpr int kMaxNode = 7;
    static constexpr int kLeaves = kMaxNode + 2;

    explicit ShardedCounter(sim::Simulator& sim) : sim_(&sim) {}

    /** Hot path: one add to the current domain's leaf. */
    void
    add(std::uint64_t d = 1)
    {
        cells_[leaf()].v += d;
    }

    /** Root of the tree: exact fold over all leaves. */
    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (const Cell& c : cells_)
            t += c.v;
        return t;
    }

    /** Register the aggregated view as a callback counter row. The
     *  returned registry counter reads total() until freeze(). */
    Counter&
    mirror(MetricRegistry& reg, const std::string& name,
           Labels labels) const
    {
        return reg.counterFn(name, std::move(labels),
                             [this] { return total(); });
    }

  private:
    int
    leaf() const
    {
        const int n = sim_->currentDomain().node;
        return n >= 0 && n <= kMaxNode ? n + 1 : 0;
    }

    /** One leaf per line so concurrent per-node writers (the parallel
     *  DES to come) never share a counter cache line. */
    struct alignas(64) Cell
    {
        std::uint64_t v = 0;
    };

    std::array<Cell, kLeaves> cells_{};
    sim::Simulator* sim_;
};

} // namespace octo::obs
