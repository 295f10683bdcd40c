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
 * identity (a nic::FiveTuple, an NVMe SQ id: at most kIdBytes), the
 * function that formats it and five counters, and the accountant
 * registers the cells with the registry as one CounterFamily, which
 * reads them on demand. A label is formatted only when the registry
 * first reads the row (export, forEach, freeze, or a findCounter/
 * sumCounters that matches on `flow`) and is cached until the cell is
 * recycled. Admitting a flow registers and formats nothing; evicting
 * one folds its cell into ~other, a stored registry row created at
 * the first eviction, and resets the cell in place for the newcomer.
 *
 * Self-cost: records and evictions are counted (obs_attr_records_total,
 * flow_evictions_total, flow_rows gauge); bench_obs_scale times the
 * record path from outside. Nothing here reads wall-clock time, so
 * results stay bit-identical with telemetry on or off. Inert without a
 * hub: record() is a null check and nothing more.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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
          sketch_(static_cast<std::size_t>(top_k)), dev_(std::move(dev))
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
     * Attribute one DMA of @p bytes to the flow identified by @p key,
     * whose identity is @p id. The cell keeps a copy of @p id taken
     * when the key enters the sketch; `Format(id)` turns it into the
     * row's flow label, and runs only when the registry reads the row.
     * @p local: the PF and the memory share a socket. @p ddio_hit: the
     * LLC absorbed it.
     */
    template <auto Format, typename Id>
    void
    record(std::uint64_t key, const Id& id, std::uint64_t bytes,
           bool local, bool ddio_hit)
    {
        static_assert(std::is_trivially_copyable_v<Id> &&
                      sizeof(Id) <= kIdBytes);
        if (reg_ == nullptr)
            return;
        ++records_;

        Sketch::Outcome out;
        std::uint64_t displaced;
        FlowCell& row = sketch_.update(key, bytes, out, displaced);
        switch (out) {
          case Sketch::Outcome::Updated:
            break;
          case Sketch::Outcome::Replaced:
            fold(row);
            row.label.clear();
            for (Counter& n : row.n)
                n = Counter{};
            [[fallthrough]];
          case Sketch::Outcome::Admitted:
            std::memcpy(row.id, &id, sizeof(Id));
            row.format = &formatId<Format, Id>;
            break;
        }
        Counter* c = row.n;
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

    /** Largest identity a cell keeps. */
    static constexpr std::size_t kIdBytes = 16;

    /** One resident flow: its identity and formatter, its label once
     *  read, and its exact counts since admission — the registry reads
     *  them in place. */
    struct FlowCell
    {
        alignas(8) unsigned char id[kIdBytes];
        std::string (*format)(const unsigned char* id) = nullptr;
        mutable std::string label; ///< Empty until first read.
        Counter n[kColumns];
    };

    using Sketch = SpaceSaving<FlowCell>;

    template <auto Format, typename Id>
    static std::string
    formatId(const unsigned char* bytes)
    {
        Id id;
        std::memcpy(&id, bytes, sizeof(Id));
        return std::string(Format(id));
    }

    std::size_t rows() const override { return sketch_.size(); }

    const std::string&
    rowLabel(std::size_t row) const override
    {
        const FlowCell& c = sketch_.payload(row);
        if (c.label.empty())
            c.label = c.format(c.id);
        return c.label;
    }

    const Counter&
    cell(std::size_t row, std::size_t column) const override
    {
        return sketch_.payload(row).n[column];
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

    // What every record() reads comes first, to share cache lines.
    MetricRegistry* reg_;
    std::uint64_t records_ = 0;
    Sketch sketch_;
    Counter* other_[kColumns] = {};
    std::string dev_;
};

} // namespace octo::obs
