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
 * device: the K heaviest flows own labeled registry rows {dev, flow}
 * of five counters, exactly as when every flow had a row —
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
 * Rollups: a record tagged with a tenant id additionally feeds exact
 * tenant_dma_* rows {dev, tenant} — bounded by the tenant count, never
 * sketched — so multi-tenant fairness work has per-tenant locality
 * observables from day one.
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
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/flow_sketch.hpp"
#include "obs/hub.hpp"

namespace octo::obs {

class DmaAccountant
{
  public:
    /** Sketch capacity of every model-owned accountant. */
    static constexpr int kDefaultTopK = 64;

    /** @param hub  Null makes every record() a no-op.
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

    bool active() const { return reg_ != nullptr; }

    /**
     * Attribute one DMA of @p bytes to the flow identified by @p key.
     * @p label (any callable returning a flow string) is invoked only
     * when the key enters the sketch — flow formatting stays off the
     * steady-state hot path, and no closure object is materialized at
     * all on the inactive path. @p local: the PF and the memory share
     * a socket. @p ddio_hit: the LLC absorbed it. @p tenant >= 0
     * additionally feeds that tenant's exact rollup row.
     */
    template <typename LabelFn>
    void
    record(std::uint64_t key, LabelFn&& label, std::uint64_t bytes,
           bool local, bool ddio_hit, int tenant = -1)
    {
        if (reg_ == nullptr)
            return;
        ++records_;

        Sketch::Outcome out;
        Sketch::Entry displaced;
        Sketch::Entry& e = sketch_.update(key, bytes, out, displaced);
        switch (out) {
          case Sketch::Outcome::Updated:
            break;
          case Sketch::Outcome::Replaced:
            fold(displaced.payload);
            [[fallthrough]];
          case Sketch::Outcome::Admitted:
            e.payload.label = label();
            e.payload.row = makeRow("flow", e.payload.label);
            break;
        }
        apply(e.payload, bytes, local, ddio_hit);

        if (tenant >= 0)
            applyRow(tenantRow(tenant), bytes, local, ddio_hit);
    }

    /** Resident attribution rows: sketch occupancy (<= topK()). */
    std::size_t flowCount() const { return sketch_.size(); }

    /** Flows displaced from the sketch into the ~other row. */
    std::uint64_t evictions() const { return sketch_.evictions(); }

    /** Sketch capacity. */
    int topK() const { return static_cast<int>(sketch_.capacity()); }

    /** Attribution calls accepted (both sketch and rollup paths). */
    std::uint64_t selfRecords() const { return records_; }

  private:
    struct Row
    {
        Counter* local = nullptr;
        Counter* remote = nullptr;
        Counter* crossings = nullptr;
        Counter* ddioHits = nullptr;
        Counter* ddioMisses = nullptr;
    };

    /** Exact per-resident-flow bookkeeping: mirrors the registry row
     *  so eviction can fold the full history into ~other without
     *  re-reading (or trusting) registry state. */
    struct FlowCell
    {
        Row row;
        std::string label;
        std::uint64_t localBytes = 0;
        std::uint64_t remoteBytes = 0;
        std::uint64_t crossings = 0;
        std::uint64_t ddioHits = 0;
        std::uint64_t ddioMisses = 0;
    };

    using Sketch = SpaceSaving<FlowCell>;

    /** Register one five-counter attribution row keyed {dev, <kind>}.
     *  @p kind is the label key ("flow" or "tenant"). */
    Row
    makeRow(const char* kind, const std::string& value)
    {
        const Labels l = {{"dev", dev_}, {kind, value}};
        Row r;
        r.local = &reg_->counter("flow_dma_local_bytes", l);
        r.remote = &reg_->counter("flow_dma_remote_bytes", l);
        r.crossings = &reg_->counter("flow_interconnect_crossings", l);
        r.ddioHits = &reg_->counter("flow_ddio_hits", l);
        r.ddioMisses = &reg_->counter("flow_ddio_misses", l);
        return r;
    }

    Row
    makeTenantRow(const std::string& value)
    {
        const Labels l = {{"dev", dev_}, {"tenant", value}};
        Row r;
        r.local = &reg_->counter("tenant_dma_local_bytes", l);
        r.remote = &reg_->counter("tenant_dma_remote_bytes", l);
        r.crossings =
            &reg_->counter("tenant_interconnect_crossings", l);
        r.ddioHits = &reg_->counter("tenant_ddio_hits", l);
        r.ddioMisses = &reg_->counter("tenant_ddio_misses", l);
        return r;
    }

    static void
    applyRow(const Row& r, std::uint64_t bytes, bool local,
             bool ddio_hit)
    {
        if (local) {
            r.local->add(bytes);
        } else {
            r.remote->add(bytes);
            r.crossings->add();
        }
        if (ddio_hit)
            r.ddioHits->add();
        else
            r.ddioMisses->add();
    }

    void
    apply(FlowCell& c, std::uint64_t bytes, bool local, bool ddio_hit)
    {
        applyRow(c.row, bytes, local, ddio_hit);
        if (local) {
            c.localBytes += bytes;
        } else {
            c.remoteBytes += bytes;
            ++c.crossings;
        }
        if (ddio_hit)
            ++c.ddioHits;
        else
            ++c.ddioMisses;
    }

    /**
     * Eviction: move the displaced flow's exact history into the
     * conserved ~other row and drop its labeled registry rows. The
     * byte totals summed over all flow rows are unchanged by
     * construction — conservation survives arbitrary churn.
     */
    void
    fold(const FlowCell& c)
    {
        const Row& o = otherRow();
        o.local->add(c.localBytes);
        o.remote->add(c.remoteBytes);
        o.crossings->add(c.crossings);
        o.ddioHits->add(c.ddioHits);
        o.ddioMisses->add(c.ddioMisses);
        const Labels l = {{"dev", dev_}, {"flow", c.label}};
        reg_->removeCounter("flow_dma_local_bytes", l);
        reg_->removeCounter("flow_dma_remote_bytes", l);
        reg_->removeCounter("flow_interconnect_crossings", l);
        reg_->removeCounter("flow_ddio_hits", l);
        reg_->removeCounter("flow_ddio_misses", l);
    }

    const Row&
    otherRow()
    {
        if (other_.local == nullptr)
            other_ = makeRow("flow", "~other");
        return other_;
    }

    const Row&
    tenantRow(int tenant)
    {
        auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
            it = tenants_
                     .emplace(tenant,
                              makeTenantRow(std::to_string(tenant)))
                     .first;
        }
        return it->second;
    }

    MetricRegistry* reg_;
    std::string dev_;
    Sketch sketch_;
    Row other_;
    std::unordered_map<int, Row> tenants_;
    std::uint64_t records_ = 0;
};

} // namespace octo::obs
