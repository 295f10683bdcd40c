/**
 * @file
 * PCIe physical functions (PFs) and bifurcation.
 *
 * A PciFunction is one PCIe endpoint: a lane bundle attached to exactly
 * one CPU socket's I/O controller. A physical device may expose several
 * PFs (bifurcation splits, e.g., x16 into 2×x8 — paper §3.2); each PF is
 * local to its own socket and remote to all others. All DMA issued
 * through a PF enters the NUMA topology at that PF's node.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "mem/cache.hpp"
#include "obs/hub.hpp"
#include "sim/pipe.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"

namespace octo::pcie {

using sim::Task;
using sim::Tick;

/**
 * One PCIe endpoint: per-direction link pipes plus routed DMA
 * operations into the host's memory system.
 */
class PciFunction
{
  public:
    /**
     * @param host  The machine whose I/O controller this PF attaches to.
     * @param node  Attachment socket.
     * @param lanes PCIe lane count (bandwidth = lanes x per-lane rate).
     * @param id    PF index within the owning device.
     */
    PciFunction(topo::Machine& host, int node, int lanes, int id,
                const std::string& name)
        : host_(host), node_(node), id_(id), lanes_(lanes),
          fairClass_(nextFairClass()),
          toHost_(host.sim(), lanes * host.cal().pcieLaneGbps,
                  host.cal().pcieLatency, name + ".up"),
          fromHost_(host.sim(), lanes * host.cal().pcieLaneGbps,
                    host.cal().pcieLatency, name + ".down")
    {
        initObs(name);
    }

    int node() const { return node_; }
    int id() const { return id_; }
    int lanes() const { return lanes_; }
    topo::Machine& host() { return host_; }

    // -------------------------------------------------- fault injection
    /**
     * Operational link state. A downed link carries no new DMA: the NIC
     * datapath checks this before issuing transactions and drops (Rx) or
     * aborts (Tx) instead. Transfers already in flight complete — they
     * were committed to the fabric before the fault.
     */
    bool linkUp() const { return linkUp_; }

    void
    setLinkUp(bool up)
    {
        if (linkUp_ == up)
            return;
        linkUp_ = up;
        if (up) {
            ++linkUpEvents_;
        } else {
            ++linkDownEvents_;
            // Surprise link loss surfaces as an uncorrectable AER error.
            ++uncorrectableErrors_;
        }
    }

    /**
     * Degrade the link to @p lanes operational lanes (link retraining
     * after lane failure). Bandwidth scales immediately; in-flight
     * reservations keep their old completion times.
     */
    void
    degradeWidth(int lanes)
    {
        operLanes_ = std::max(1, std::min(lanes, lanes_));
        ++degradeEvents_;
        // A retrain to fewer lanes is preceded by a correctable-error
        // burst (replay timeouts on the failed lanes).
        ++correctableErrors_;
        applyRate();
    }

    /** Degrade the per-lane rate by @p scale in (0, 1] (gen downshift,
     *  e.g. gen3 -> gen1 retrain ≈ 0.32). */
    void
    degradeGen(double scale)
    {
        genScale_ = std::min(1.0, std::max(0.01, scale));
        ++degradeEvents_;
        ++correctableErrors_;
        applyRate();
    }

    /** Restore full width, gen rate, and link-up state. */
    void
    restoreLink()
    {
        operLanes_ = lanes_;
        genScale_ = 1.0;
        applyRate();
        setLinkUp(true);
    }

    int operLanes() const { return operLanes_; }
    double genScale() const { return genScale_; }
    std::uint64_t linkDownEvents() const { return linkDownEvents_; }
    std::uint64_t linkUpEvents() const { return linkUpEvents_; }
    std::uint64_t degradeEvents() const { return degradeEvents_; }

    // ---------------------------------------------------- gray failures
    // A gray-failed PF misbehaves without telling anyone: no AER
    // counter moves, bwFraction() stays nominal, linkUp() stays true.
    // Health sampling therefore cannot see it — that is the point.
    // Detection has to come from the outside (differential probing).

    /** A fraction @p p of DMAs through this PF take an @p extra tail
     *  (marginal retimer, firmware hiccup, congested switch port). */
    void
    setGrayDelay(double p, Tick extra)
    {
        grayDelayP_ = std::min(1.0, std::max(0.0, p));
        grayDelayExtra_ = extra;
    }

    /** A fraction @p p of frames/completions through this PF vanish
     *  silently. The datapath consults grayDropSample() at the points
     *  where a loss is survivable (Rx frames, probe completions). */
    void setGrayDrop(double p)
    {
        grayDropP_ = std::min(1.0, std::max(0.0, p));
    }

    /** Heal all gray behavior. */
    void
    clearGray()
    {
        grayDelayP_ = 0.0;
        grayDelayExtra_ = 0;
        grayDropP_ = 0.0;
    }

    bool grayFaulted() const
    {
        return grayDelayP_ > 0.0 || grayDropP_ > 0.0;
    }

    /** Bernoulli draw against the gray-drop probability. */
    bool
    grayDropSample()
    {
        return grayDropP_ > 0.0 && grayRng_.chance(grayDropP_);
    }

    // ------------------------------------------------- health telemetry
    /** Effective bandwidth as a fraction of nominal: (operational
     *  lanes / nominal lanes) x gen-rate fraction. A downed link still
     *  reports its trained fraction — liveness is linkUp()'s job. */
    double
    bwFraction() const
    {
        return static_cast<double>(operLanes_) / lanes_ * genScale_;
    }

    /** Full-width full-gen bandwidth in Gb/s (steering-weight scale). */
    double
    nominalGbps() const
    {
        return lanes_ * host_.cal().pcieLaneGbps;
    }

    /** AER correctable error count (replay/retrain events). */
    std::uint64_t correctableErrors() const { return correctableErrors_; }

    /** AER uncorrectable error count (surprise link loss). */
    std::uint64_t
    uncorrectableErrors() const
    {
        return uncorrectableErrors_;
    }

    /** Device-to-host direction (DMA writes). */
    sim::Pipe& toHost() { return toHost_; }

    /** Host-to-device direction (DMA read completions). */
    sim::Pipe& fromHost() { return fromHost_; }

    /**
     * DMA-write @p bytes into memory on @p mem_node.
     *
     * With DDIO enabled and the PF local to the memory, the write
     * allocates into the node's LLC (no DRAM traffic); otherwise it
     * traverses the interconnect (when remote) and lands in DRAM.
     *
     * @return Where the written data resides, for the eventual consumer.
     */
    Task<mem::DataLoc>
    dmaWrite(int mem_node, std::uint64_t bytes)
    {
        const Tick start = host_.sim().now();
        if (const Tick tail = grayDelaySample())
            co_await sim::delay(host_.sim(), tail);
        co_await toHost_.transfer(bytes);
        const mem::DataLoc loc =
            host_.llc(mem_node).dmaWriteLocation(node_, mem_node);
        if (loc == mem::DataLoc::Llc) {
            co_await sim::delay(host_.sim(), host_.cal().llcLatency);
        } else {
            co_await host_.memTransfer(node_, mem_node, bytes,
                                       topo::MemDir::Write, 1.0,
                                       fairClass_);
        }
        recordDma(bytes, mem_node, loc == mem::DataLoc::Llc);
        if (auto* tr = obs::tracer(host_.sim(), obs::kCatDma)) {
            tr->complete(
                obs::kCatDma, "dma_write", tracePid_, traceTid_, start,
                host_.sim().now(),
                {{"bytes", bytes},
                 {"mem_node", mem_node},
                 {"local", mem_node == node_ ? 1 : 0},
                 {"loc", loc == mem::DataLoc::Llc ? "llc" : "dram"}});
        }
        co_return loc;
    }

    /**
     * DMA-read @p bytes from memory on @p mem_node, where the data is
     * currently resident at @p loc.
     *
     * Local reads of LLC-resident data are serviced by the cache (no
     * DRAM traffic, no invalidation). Remote reads are satisfied by
     * probing the remote LLC and DRAM in parallel, so DRAM bandwidth is
     * consumed even when the line is cached — this reproduces the
     * paper's Fig. 7 observation that remote-Tx memory bandwidth equals
     * throughput while CPU-visible misses stay flat (§5.1.1).
     */
    Task<Tick>
    dmaRead(int mem_node, std::uint64_t bytes, mem::DataLoc loc)
    {
        const Tick start = host_.sim().now();
        if (const Tick tail = grayDelaySample())
            co_await sim::delay(host_.sim(), tail);
        const bool llc_hit = loc == mem::DataLoc::Llc &&
                             mem_node == node_;
        if (llc_hit) {
            co_await sim::delay(host_.sim(), host_.cal().llcLatency);
        } else {
            co_await host_.memTransfer(node_, mem_node, bytes,
                                       topo::MemDir::Read, 1.0,
                                       fairClass_);
        }
        co_await fromHost_.transfer(bytes);
        recordDma(bytes, mem_node, llc_hit);
        if (auto* tr = obs::tracer(host_.sim(), obs::kCatDma)) {
            tr->complete(obs::kCatDma, "dma_read", tracePid_, traceTid_,
                         start, host_.sim().now(),
                         {{"bytes", bytes},
                          {"mem_node", mem_node},
                          {"local", mem_node == node_ ? 1 : 0},
                          {"loc", llc_hit ? "llc" : "dram"}});
        }
        co_return host_.sim().now() - start;
    }

    /**
     * Latency for a posted MMIO write (doorbell) from a CPU on
     * @p cpu_node to reach the device. The CPU-side cost (mmioCpuCost)
     * is charged by the caller on its core.
     */
    Tick
    mmioLatency(int cpu_node) const
    {
        Tick lat = host_.cal().pcieLatency;
        if (cpu_node != node_)
            lat += host_.cal().qpiLatency;
        return lat;
    }

    /** Interconnect arbitration class of this endpoint. */
    int fairClass() const { return fairClass_; }

  private:
    static int
    nextFairClass()
    {
        static int next = 1000;
        return next++;
    }

    /** Extra tail for this DMA, or 0. Separate from grayDropSample()
     *  so delay and drop draws don't perturb each other's streams. */
    Tick
    grayDelaySample()
    {
        if (grayDelayP_ <= 0.0 || !grayRng_.chance(grayDelayP_))
            return 0;
        return grayDelayExtra_;
    }

    /**
     * Register this PF's instruments when a hub is attached: locality
     * counters keyed {dev, pf, node} plus callback-backed link health
     * gauges and per-direction byte counters mirroring the pipes.
     * Without a hub every pointer stays null and recordDma is inert.
     */
    void
    initObs(const std::string& name)
    {
        obs::Hub* h = obs::hub(host_.sim());
        if (h == nullptr)
            return;
        // "octoNIC.pf0" -> dev "octoNIC"; names without a dot are their
        // own device.
        const auto dot = name.rfind('.');
        const std::string dev =
            dot == std::string::npos ? name : name.substr(0, dot);
        const std::string pf =
            dot == std::string::npos ? name : name.substr(dot + 1);
        const obs::Labels l = {
            {"dev", dev}, {"pf", pf}, {"node", std::to_string(node_)}};
        obs::MetricRegistry& reg = h->metrics();
        reg.counterFn("dma_local_bytes", l,
                      [this] { return obLocal_.total(); });
        reg.counterFn("dma_remote_bytes", l,
                      [this] { return obRemote_.total(); });
        reg.counterFn("interconnect_crossings", l,
                      [this] { return obCross_.total(); });
        reg.counterFn("ddio_hits", l,
                      [this] { return obDdioHit_.total(); });
        reg.counterFn("ddio_misses", l,
                      [this] { return obDdioMiss_.total(); });
        obsOn_ = true;
        reg.counterFn("pcie_to_host_bytes", l,
                      [this] { return toHost_.totalBytes(); });
        reg.counterFn("pcie_from_host_bytes", l,
                      [this] { return fromHost_.totalBytes(); });
        reg.counterFn("pcie_correctable_errors", l,
                      [this] { return correctableErrors_; });
        reg.counterFn("pcie_uncorrectable_errors", l,
                      [this] { return uncorrectableErrors_; });
        reg.gaugeFn("pcie_bw_fraction", l,
                    [this] { return bwFraction(); });
        reg.gaugeFn("pcie_link_up", l,
                    [this] { return linkUp_ ? 1.0 : 0.0; });
        tracePid_ = h->pidFor(dev);
        traceTid_ = 100 + id_;
        h->tracer().threadName(tracePid_, traceTid_, pf + ".dma");
    }

    /** Per-PF locality/DDIO bookkeeping for one DMA op. */
    void
    recordDma(std::uint64_t bytes, int mem_node, bool ddio_hit)
    {
        if (!obsOn_)
            return;
        if (mem_node == node_) {
            obLocal_.add(bytes);
        } else {
            obRemote_.add(bytes);
            obCross_.add();
        }
        if (ddio_hit)
            obDdioHit_.add();
        else
            obDdioMiss_.add();
    }

    void
    applyRate()
    {
        const double gbps =
            operLanes_ * host_.cal().pcieLaneGbps * genScale_;
        toHost_.setRateGbps(gbps);
        fromHost_.setRateGbps(gbps);
    }

    topo::Machine& host_;
    int node_;
    int id_;
    int lanes_;
    int fairClass_;
    sim::Pipe toHost_;
    sim::Pipe fromHost_;

    bool linkUp_ = true;
    int operLanes_ = lanes_;
    double genScale_ = 1.0;
    std::uint64_t linkDownEvents_ = 0;
    std::uint64_t linkUpEvents_ = 0;
    std::uint64_t degradeEvents_ = 0;
    std::uint64_t correctableErrors_ = 0;
    std::uint64_t uncorrectableErrors_ = 0;

    double grayDelayP_ = 0.0;
    Tick grayDelayExtra_ = 0;
    double grayDropP_ = 0.0;
    // Seeded from the PF identity, not wall-clock: gray behavior is
    // deterministic per run like everything else in the model.
    sim::Rng grayRng_{0xC0FFEEull ^
                      (static_cast<std::uint64_t>(id_) << 8) ^
                      static_cast<std::uint64_t>(node_)};

    // Locality/DDIO counts, kept only while a hub is attached.
    bool obsOn_ = false;
    obs::Tally obLocal_;
    obs::Tally obRemote_;
    obs::Tally obCross_;
    obs::Tally obDdioHit_;
    obs::Tally obDdioMiss_;
    int tracePid_ = 0;
    int traceTid_ = 0;
};

} // namespace octo::pcie
