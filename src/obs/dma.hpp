/**
 * @file
 * DMA-locality accounting: per-flow / per-SQ attribution of the DMA
 * traffic already counted per-PF by pcie::PciFunction — bounded at
 * production flow counts.
 *
 * A DmaAccountant belongs to one device-side driver layer (the NIC
 * datapath, the NVMe driver, the bypass poll plane) — the layers that
 * know *which flow or submission queue* a DMA belongs to, which the
 * PCIe layer below cannot know.
 *
 * Attribution is a Space-Saving top-K heavy-hitter sketch
 * (obs::SpaceSaving, K = the constructor's top_k, default 64) per
 * device: the K heaviest flows own labeled rows {dev, flow} of five
 * counters, exactly as when every flow had a row —
 *
 *     flow_dma_local_bytes      payload bytes via a socket-local PF
 *     flow_dma_remote_bytes     payload bytes that crossed sockets
 *     flow_interconnect_crossings   DMA ops that traversed QPI/UPI
 *     flow_ddio_hits            DMAs served by the LLC (DDIO)
 *     flow_ddio_misses          DMAs that had to touch DRAM
 *
 * — while everything displaced from the sketch folds into one
 * conserved {dev, flow="~other"} row. The invariant the tests and
 * bench_obs_scale pin: sum over all flow rows *including* ~other of
 * the byte counters exactly equals the PF-grain dma_*_bytes totals,
 * at any instant, at any churn rate. Resident state is <= K rows per
 * device no matter how many flows live and die (the old design
 * materialized an unbounded row per key).
 *
 * The sketch cells are the only per-flow store: each holds its flow's
 * label and five counters, and the accountant registers the cells
 * with the registry as one CounterFamily, which reads them on demand.
 * Admitting a flow registers nothing and evicting one erases nothing;
 * ~other is a stored registry row, created at the first eviction.
 *
 * Self-cost: records and evictions are counted (obs_attr_records_total,
 * flow_evictions_total, flow_rows gauge); bench_obs_scale times the
 * record path from outside. Nothing here reads wall-clock time, so
 * results stay bit-identical with telemetry on or off. Inert without a
 * hub: record() is a null check and nothing more, and the label
 * callable is never invoked for keys already resident.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>
#include <utility>

#include "obs/flow_sketch.hpp"
#include "obs/hub.hpp"

namespace octo::obs {

class DmaAccountant : private CounterFamily
{
  public:
    /** Sketch capacity of every model-owned accountant. */
    static constexpr int kDefaultTopK = 64;

    /** @param hub  Null makes every record() a no-op; otherwise it
     *              must outlive the accountant, which unregisters its
     *              rows from the hub's registry when it dies.
     *  @param dev  Device label stamped on every flow row.
     *  @param top_k Sketch capacity (> 0). A K at or above the live
     *               flow count never evicts: one exact row per flow. */
    DmaAccountant(Hub* hub, std::string dev, int top_k = kDefaultTopK)
        : reg_(hub != nullptr ? &hub->metrics() : nullptr),
          dev_(std::move(dev)), sketch_(static_cast<std::size_t>(top_k))
    {
        assert(top_k > 0);
        if (reg_ == nullptr)
            return;
        const Labels l = {{"dev", dev_}};
        reg_->addFamily(*this,
                        std::vector<std::string>(std::begin(kNames),
                                                 std::end(kNames)),
                        "flow", l);
        reg_->gaugeFn("flow_rows", l, [this] {
            return static_cast<double>(flowCount());
        });
        reg_->counterFn("flow_evictions_total", l,
                        [this] { return sketch_.evictions(); });
        reg_->counterFn("obs_attr_records_total", l,
                        [this] { return records_; });
        reg_->gaugeFn("flow_topk", l, [this] {
            return static_cast<double>(topK());
        });
    }

    ~DmaAccountant()
    {
        if (reg_ != nullptr)
            reg_->removeFamily(*this);
    }

    DmaAccountant(const DmaAccountant&) = delete;
    DmaAccountant& operator=(const DmaAccountant&) = delete;

    bool active() const { return reg_ != nullptr; }

    /**
     * Attribute one DMA of @p bytes to the flow identified by @p key.
     * @p label (any callable returning a flow string) is invoked only
     * when the key enters the sketch — flow formatting stays off the
     * steady-state hot path, and no closure object is materialized at
     * all on the inactive path. @p local: the PF and the memory share
     * a socket. @p ddio_hit: the LLC absorbed it.
     */
    template <typename LabelFn>
    void
    record(std::uint64_t key, LabelFn&& label, std::uint64_t bytes,
           bool local, bool ddio_hit)
    {
        if (reg_ == nullptr)
            return;
        ++records_;

        Sketch::Outcome out;
        Sketch::Entry& e = sketch_.update(key, bytes, out, displaced_);
        switch (out) {
          case Sketch::Outcome::Updated:
            break;
          case Sketch::Outcome::Replaced:
            fold(displaced_.payload);
            [[fallthrough]];
          case Sketch::Outcome::Admitted:
            e.payload.label = label();
            break;
        }
        Counter* c = e.payload.n;
        if (local) {
            c[kLocal].add(bytes);
        } else {
            c[kRemote].add(bytes);
            c[kCrossings].add();
        }
        c[ddio_hit ? kDdioHits : kDdioMisses].add();
    }

    /** Resident attribution rows: sketch occupancy (<= topK()). */
    std::size_t flowCount() const { return sketch_.size(); }

    /** Flows displaced from the sketch into the ~other row. */
    std::uint64_t evictions() const { return sketch_.evictions(); }

    /** Sketch capacity. */
    int topK() const { return static_cast<int>(sketch_.capacity()); }

    /** Attribution calls accepted. */
    std::uint64_t selfRecords() const { return records_; }

  private:
    /** Counter columns of a flow row, in kNames order. */
    enum Column
    {
        kLocal,
        kRemote,
        kCrossings,
        kDdioHits,
        kDdioMisses,
        kColumns,
    };

    static constexpr const char* kNames[kColumns] = {
        "flow_dma_local_bytes", "flow_dma_remote_bytes",
        "flow_interconnect_crossings", "flow_ddio_hits",
        "flow_ddio_misses"};

    /** One resident flow: its label, formatted at admission, and its
     *  exact counts since then — the registry reads them in place. */
    struct FlowCell
    {
        std::string label;
        Counter n[kColumns];
    };

    using Sketch = SpaceSaving<FlowCell>;

    std::size_t rows() const override { return sketch_.size(); }

    const std::string&
    rowLabel(std::size_t row) const override
    {
        return sketch_.entries()[row].payload.label;
    }

    const Counter&
    cell(std::size_t row, std::size_t column) const override
    {
        return sketch_.entries()[row].payload.n[column];
    }

    /**
     * Eviction: move the displaced flow's exact history into the
     * conserved ~other row. The byte totals summed over all flow rows
     * are unchanged by construction — conservation survives arbitrary
     * churn.
     */
    void
    fold(const FlowCell& c)
    {
        if (other_[0] == nullptr) {
            const Labels l = {{"dev", dev_}, {"flow", "~other"}};
            for (int i = 0; i < kColumns; ++i)
                other_[i] = &reg_->counter(kNames[i], l);
        }
        for (int i = 0; i < kColumns; ++i)
            other_[i]->add(c.n[i].value());
    }

    MetricRegistry* reg_;
    std::string dev_;
    Sketch sketch_;
    Sketch::Entry displaced_; ///< Eviction scratch: the displaced
                              ///< entry moves here, so record()
                              ///< constructs no Entry of its own.
    Counter* other_[kColumns] = {};
    std::uint64_t records_ = 0;
};

} // namespace octo::obs
