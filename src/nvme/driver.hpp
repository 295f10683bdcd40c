/**
 * @file
 * Multi-queue NVMe driver: per-node submission queues over a (possibly
 * dual-port) NvmeDevice, exposed to the health monitor as a
 * steer::SteerablePlane.
 *
 * The Linux NVMe driver allocates one submission/completion queue pair
 * per CPU; what matters for NUDMA is which *socket* a queue's doorbell
 * and DMA enter the fabric at, so the model keeps one SQ per node. Each
 * SQ is homed on the port local to its node (falling back to port 0 on
 * single-port drives) — the OctoSSD steering that keeps every IO's
 * payload and completion entry on the submitter's socket. Re-steering
 * an SQ rebinds its *port*, exactly like the NIC team driver rebinding
 * a queue's PF: when the local port retrains to x2, the monitor moves
 * the SQ behind the remote x8 port, trading interconnect hops for
 * bandwidth, and brings it home on recovery.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nvme/nvme.hpp"
#include "obs/dma.hpp"
#include "sim/task.hpp"
#include "steer/plane.hpp"

namespace octo::nvme {

/** One per-node submission queue: port binding + in-flight accounting. */
struct NvmeSq
{
    int id = 0;
    int node = 0;   ///< Submitting socket this SQ serves.
    int pf = 0;     ///< Current port binding (re-steering changes it).
    int homePf = 0; ///< Setup-time binding (the node-local port).
    int inflight = 0;
    std::uint64_t ios = 0;
    std::uint64_t done = 0; ///< Completed IOs: ios == done + inflight.
    std::uint64_t bytes = 0;
    sim::Tick doorbellStuckUntil = 0; ///< Doorbell-stuck fault deadline.
    sim::Tick cqStallUntil = 0;       ///< CQ-stall fault deadline.
    std::uint64_t stallEvents = 0;    ///< Stall faults applied to this SQ.
    /** IOs routed through each port (weighted striping visibility). */
    std::vector<std::uint64_t> portIos;
};

/**
 * The driver. Construct, addSq() once per node, then issue read()s.
 */
class NvmeDriver : public steer::SteerablePlane
{
  public:
    /** Watchdog timeout on an administrative SQ drain: a queue whose
     *  in-flight IOs refuse to complete delays the drain by at most
     *  this long. */
    static constexpr sim::Tick kDrainWatchdog = sim::fromMs(5);

    explicit NvmeDriver(NvmeDevice& dev);

    NvmeDevice& device() { return dev_; }

    /** Add the submission queue serving @p node, homed on the port
     *  local to that node (port 0 when none is). Returns the SQ id. */
    int addSq(int node);

    const NvmeSq& sq(int id) const { return sqs_.at(id); }
    int sqCount() const { return static_cast<int>(sqs_.size()); }

    /** The SQ serving @p node (SQ 0 when the node has none). */
    int sqForNode(int node) const;

    /** IOs SQ @p id routed through port @p port. */
    std::uint64_t
    sqPortIos(int id, int port) const
    {
        const auto& v = sqs_.at(id).portIos;
        const auto p = static_cast<std::size_t>(port);
        return p < v.size() ? v[p] : 0;
    }

    /**
     * Block read submitted from a core on @p submit_node into a buffer
     * on @p buf_node: routed through the submitter SQ's current port;
     * the completion entry lands on the submitter's socket.
     */
    sim::Task<sim::Tick> read(std::uint64_t bytes, int buf_node,
                              int submit_node);

    /** Per-SQ DMA attribution (bounded top-K sketch; read-only). */
    const obs::DmaAccountant& flows() const { return flows_; }

    // --------------------------------- steer::SteerablePlane interface
    const char* planeName() const override { return "nvme"; }
    sim::Simulator& planeSim() override { return dev_.host().sim(); }
    int pfCount() const override { return dev_.portCount(); }

    int
    steerableQueueCount() const override
    {
        return static_cast<int>(sqs_.size());
    }

    steer::EndpointTelemetry
    telemetry(const steer::Endpoint& ep) const override;

    /** SQ endpoints rebind alone; port endpoints rebind every SQ
     *  currently bound to the port. Rebinds apply to *subsequent*
     *  submissions — in-flight IOs complete on the old port. */
    void resteer(const steer::Endpoint& ep, int target_pf) override;

    /** Administrative drain: wait (watchdog-bounded) for the SQ's
     *  in-flight IOs to complete; no binding changes. */
    void drain(const steer::Endpoint& ep) override;

    void
    setWeightedSteering(bool on) override
    {
        weightedSteering_ = on;
    }

    void
    applyPfWeights(const std::vector<double>& weights) override
    {
        pfWeights_ = weights;
    }

    std::uint64_t resteersPerformed() const override { return resteers_; }

    // --------------------------------------------------- fault injection
    /** SQ @p sq's doorbell register stops accepting writes for
     *  @p duration: submissions block at the doorbell until it frees
     *  (the SQ-grain mirror of the NIC's QueueStall). */
    void stallDoorbell(int sq, sim::Tick duration);

    /** SQ @p sq's completion posting wedges for @p duration: IOs
     *  finish on media but their CQEs surface only afterwards. */
    void stallCq(int sq, sim::Tick duration);

    /** Stall fault events applied to SQ @p id (either kind). */
    std::uint64_t
    sqStallEvents(int id) const
    {
        return sqs_.at(id).stallEvents;
    }

    /** Administrative SQ drains requested through the plane. */
    std::uint64_t adminDrains() const { return adminDrains_; }

    /** Drains cut short by the watchdog. */
    std::uint64_t drainWatchdogFires() const { return watchdogFires_; }

  private:
    sim::Task<> drainTask(int sq_id);

    /** Weighted-striping port choice for one submission (see read()). */
    int stripePort(const NvmeSq& sq) const;

    NvmeDevice& dev_;
    std::vector<NvmeSq> sqs_;
    std::vector<double> pfWeights_;
    std::vector<sim::Task<>> drains_;
    bool weightedSteering_ = false;
    std::uint64_t resteers_ = 0;
    std::uint64_t adminDrains_ = 0;
    std::uint64_t watchdogFires_ = 0;

    obs::DmaAccountant flows_; ///< Per-SQ DMA attribution.
    obs::Histogram* obE2e_ = nullptr; ///< Submit -> completion, ns.
    int tracePid_ = 0;
};

} // namespace octo::nvme
