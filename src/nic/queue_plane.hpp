/**
 * @file
 * The NIC queue plane: the driver half both NIC datapaths share.
 *
 * The interrupt-driven kernel stack (os::NetStack) and the busy-polled
 * bypass datapath (bypass::PollPlane) drive the same NicDevice queues
 * and differ only in software cost. What they have in common lives
 * here, written once:
 *
 *  - the steer::SteerablePlane surface: per-PF and per-queue telemetry
 *    read straight from the device, the drain-then-rebind resteer
 *    (firmware-RPC delay, watchdog-bounded drain of the old binding,
 *    epoch guard against verdict churn — the §4.2 ooo_okay discipline),
 *    the administrative drain, and the health probe;
 *  - the Rx CQE-residency read (`cqeRead`): the NUDMA term a consumer
 *    pays per completion whether a softirq or a poll loop reads it.
 *
 * Derived planes keep their own flow placement (`placeFlow`), identity
 * and datapath.
 */
#pragma once

#include <cstdint>
#include <unordered_map>

#include "mem/cache.hpp"
#include "nic/device.hpp"
#include "sim/task.hpp"
#include "steer/plane.hpp"
#include "topo/machine.hpp"

namespace octo::nic {

class QueuePlane : public steer::SteerablePlane
{
  public:
    /** Bound on every blocking driver operation (queue drain before a
     *  rebind, admin drain, probe). A stalled queue can delay a resteer
     *  by at most this long — it can never wedge the driver. */
    static constexpr Tick kDrainWatchdog = sim::fromMs(5);

    QueuePlane(const QueuePlane&) = delete;
    QueuePlane& operator=(const QueuePlane&) = delete;

    // --------------------------------- steer::SteerablePlane interface
    sim::Simulator& planeSim() override { return sim_; }
    int pfCount() const override { return device_.functionCount(); }

    int
    steerableQueueCount() const override
    {
        return device_.queueCount();
    }

    steer::EndpointTelemetry
    telemetry(const steer::Endpoint& ep) const override;

    /** Queue endpoints re-steer alone (epoch-guarded drain/rebind); PF
     *  endpoints re-steer every queue currently bound to the PF. */
    void resteer(const steer::Endpoint& ep, int target_pf) override;

    /** Administrative drain: flush the endpoint's in-flight Rx backlog
     *  (watchdog-bounded) without touching any binding. */
    void drain(const steer::Endpoint& ep) override;

    /**
     * Health probe: post one tiny fast-path descriptor on a queue
     * bound to PF @p pf and wait (watchdog-bounded) for its completion
     * to come back clean — no socket, no real flow. An interrupt-driven
     * queue's completion is reaped by the normal Tx softirq; a polled
     * queue raises no interrupt, so the wait loop reaps it itself.
     */
    sim::Task<bool> probe(int pf) override;

    std::uint64_t resteersPerformed() const override { return resteers_; }

    void unplaceFlow(const FiveTuple& flow) override;

    bool queueDmaLocal(int qid) const override;

    /**
     * Re-steer queue @p qid's DMA behind PF @p pf_idx: issue the
     * firmware RPC, drain the in-flight completions of the old binding
     * (bounded by kDrainWatchdog), then rebind. A newer re-steer for
     * the same queue supersedes an in-flight one (epoch check), so
     * verdict churn cannot interleave stale rebinds. Monitor verdicts
     * and the team driver's PF failover both move queues here.
     */
    void resteerQueue(int qid, int pf_idx);

    /** Administrative endpoint drains requested through the plane. */
    std::uint64_t adminDrains() const { return adminDrains_; }

    /** Drains cut short by kDrainWatchdog (the queue refused to drain
     *  in time). */
    std::uint64_t watchdogFires() const { return watchdogFires_; }

    /**
     * Read one device-written Rx completion entry of queue @p q from a
     * core on @p reader's node: an LLC hit when DDIO left it in the
     * reader's LLC, a cache-to-cache forward across the interconnect
     * when it sits in the other node's LLC, or a DRAM miss that
     * serializes behind the device's in-flight posted writes. Software
     * removes no part of this — it is pure memory system. The cost is
     * fixed at the call (await it at once).
     */
    [[nodiscard]] sim::Delay cqeRead(const NicQueue& q,
                                     mem::DataLoc cqe_loc, int buf_node,
                                     const topo::Core& reader);

  protected:
    QueuePlane(topo::Machine& machine, NicDevice& device);

    /** Watchdog-bounded wait for @p qid's pre-snapshot Rx backlog to be
     *  reaped; true when drained, false when the watchdog fired. */
    sim::Task<bool> drainQueue(int qid);

    topo::Machine& machine_;
    NicDevice& device_;
    sim::Simulator& sim_;
    int tracePid_ = 0; ///< Trace process of the derived plane.

  private:
    /** Drain queue @p qid's old binding and rebind it to @p pf_idx,
     *  unless superseded by epoch @p epoch moving on. */
    sim::Task<> drainAndRebind(int qid, int pf_idx, std::uint64_t epoch);

    /** Fire-and-forget watchdog-bounded flush for an admin drain. */
    sim::Task<> adminDrainTask(int qid);

    std::unordered_map<int, std::uint64_t> resteerEpoch_;
    std::uint64_t resteers_ = 0;
    std::uint64_t adminDrains_ = 0;
    std::uint64_t watchdogFires_ = 0;
};

} // namespace octo::nic
