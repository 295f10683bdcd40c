/**
 * @file
 * The kernel-bypass polled datapath (§6's composition claim, and the
 * gem5 kernel-bypass question from PAPERS.md): DPDK/XDP-style per-core
 * ports that busy-poll the NIC's completion rings directly.
 *
 * A PollPlane owns a set of PollPorts, one per participating core.
 * Each port wraps one NicQueue put into polled mode: no interrupts are
 * ever raised — completions accumulate in the very same rxCq/txCq
 * channels the softirq path drains, and the application harvests them
 * in bursts from its own coroutine (`rxBurst`/`harvestTx`). Packet
 * buffers come from a zero-copy Mempool homed per NUMA node; a
 * harvested packet's buffer belongs to the application until
 * `freePacket` returns it.
 *
 * What bypass removes is *software*: the softirq hop, GRO, protocol
 * and socket work, copies, syscalls, wakeups. What it cannot remove is
 * the NUDMA term — the CQE/payload lines the device wrote land wherever
 * the device's PF points, so a remote PF still costs a DRAM+QPI round
 * trip per descriptor read. With per-packet software cost collapsed
 * from ~1.5 us to tens of ns, that memory term *dominates*, which is
 * why the remote penalty survives bypass and PF steering still pays.
 *
 * The plane derives from nic::QueuePlane, the steering plane and CQE
 * read os::NetStack also derives from, so one HealthMonitor judges
 * polled queues exactly like interrupt-driven ones with the same code.
 * Rebinds are transparent to the poller: the port keeps harvesting the
 * same rings while their DMA moves behind another PF.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bypass/mempool.hpp"
#include "nic/device.hpp"
#include "nic/queue_plane.hpp"
#include "obs/dma.hpp"
#include "obs/sharded.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "topo/machine.hpp"

namespace octo::obs {
class Histogram;
}

namespace octo::bypass {

using sim::Task;
using sim::Tick;

/** Tunables of the polled datapath. */
struct BypassConfig
{
    /** Max descriptors harvested or posted per burst call. */
    int burst = 32;

    /** Mempool headroom beyond each port's ring fill: how many
     *  harvested buffers the application may hold before Rx-ring
     *  refills start failing. */
    int extraBufsPerPort = 1024;
};

/** One harvested packet: the frame plus its zero-copy buffer. The
 *  application owns the buffer until freePacket(). */
struct RxPacket
{
    nic::Frame frame;
    mem::DataLoc loc = mem::DataLoc::Dram; ///< Payload residency.
    int node = 0;                          ///< Buffer's home node.
};

class PollPlane;

/**
 * One core's polled queue pair. All entry points acquire the core's
 * mutex and charge it busy time — a busy-poll loop occupies its core
 * by construction, and the occupancy histogram records how full each
 * poll came back.
 */
class PollPort
{
  public:
    int qid() const { return qid_; }
    topo::Core& core() { return core_; }

    /**
     * Harvest up to @p max Rx completions into @p out. Pays the CQE
     * residency cost per descriptor (the NUDMA term) plus the polled
     * driver's per-frame bookkeeping; an empty poll pays one ring
     * probe. Each packet's e2e latency span (wire arrival -> return
     * from this burst) is recorded here. Returns frames harvested.
     */
    Task<int> rxBurst(RxPacket* out, int max);

    /**
     * Post @p count single-frame descriptors of @p bytes payload for
     * @p flow, then ring the doorbell once for the whole burst.
     * @p completion_sem (optional) is released per completion when the
     * port later harvests Tx. Returns descriptors posted.
     */
    Task<int> txBurst(const nic::FiveTuple& flow, std::uint32_t bytes,
                      int count, sim::Semaphore* completion_sem);

    /**
     * Post one message of @p bytes (the NIC segments to MTU on the
     * wire) from a buffer on @p skb_node resident at @p loc. Used by
     * RR-style request/response exchanges.
     */
    Task<> txMessage(const nic::FiveTuple& flow, std::uint32_t bytes,
                     int skb_node, mem::DataLoc loc, bool last_of_message,
                     sim::Semaphore* completion_sem);

    /** Reap up to @p max Tx completions, releasing their semaphores. */
    Task<int> harvestTx(int max);

    /** Return @p p's buffer to the mempool and refill the Rx ring. */
    void freePacket(const RxPacket& p);

    // ------------------------------------------------------- statistics
    std::uint64_t polls() const { return polls_; }
    std::uint64_t emptyPolls() const { return emptyPolls_; }
    std::uint64_t rxFrames() const { return rxFrames_.total(); }
    std::uint64_t rxBytes() const { return rxBytes_.total(); }
    std::uint64_t txFrames() const { return txFrames_.total(); }
    std::uint64_t txBytes() const { return txBytes_.total(); }
    std::uint64_t txReaped() const { return txReaped_; }

    /** Ring refills deferred because the pool was dry. */
    std::uint64_t pendingRefill() const { return pendingRefill_; }

  private:
    friend class PollPlane;

    PollPort(PollPlane& plane, topo::Core& core, int qid);

    PollPlane& plane_;
    int qid_;
    topo::Core& core_;

    std::unordered_map<nic::FiveTuple, std::uint64_t> txSeq_;
    std::uint64_t pendingRefill_ = 0;
    std::uint64_t polls_ = 0;
    std::uint64_t emptyPolls_ = 0;
    // Burst-hot frame/byte counters shard per domain node
    // (obs::ShardedCounter); readers fold the exact total.
    obs::ShardedCounter rxFrames_;
    obs::ShardedCounter rxBytes_;
    obs::ShardedCounter txFrames_;
    obs::ShardedCounter txBytes_;
    std::uint64_t txReaped_ = 0;
};

/** The polled datapath over one NIC. */
class PollPlane : public nic::NicSink, public nic::QueuePlane
{
  public:
    PollPlane(topo::Machine& machine, nic::NicDevice& device,
              BypassConfig cfg = {});
    ~PollPlane() override;

    PollPlane(const PollPlane&) = delete;
    PollPlane& operator=(const PollPlane&) = delete;

    /**
     * Attach a port polling queue @p qid from @p core: puts the queue
     * in polled mode, carves its ring fill + headroom out of the
     * node's mempool arena, and fills the ring. Ports are dense; the
     * testbed adds one per core in core-id order.
     */
    PollPort& addPort(topo::Core& core, int qid);

    PollPort& port(int idx) { return *ports_.at(idx); }
    int portCount() const { return static_cast<int>(ports_.size()); }

    /** The port polling @p qid, or nullptr. */
    PollPort* portForQueue(int qid);

    /** Program the device flow table: @p flow -> @p port_idx's queue
     *  (the IOctoRFS rule; PF binding stays the queue's own). */
    void steerFlow(const nic::FiveTuple& flow, int port_idx);

    Mempool& mempool() { return pool_; }
    nic::NicDevice& device() { return device_; }
    const BypassConfig& config() const { return cfg_; }

    /** Delivery-grain flow attribution for harvested Rx traffic
     *  (bounded top-K sketch; rows keyed dev="<nic>.poll"). */
    const obs::DmaAccountant& flows() const { return flows_; }

    // ------------------------------------------------------- aggregates
    std::uint64_t rxBytesTotal() const;
    std::uint64_t txBytesTotal() const;
    std::uint64_t rxFramesTotal() const;
    std::uint64_t txFramesTotal() const;
    std::uint64_t emptyPollsTotal() const;
    std::uint64_t lostBytes() const { return lostBytes_; }

    // -------------------------------------------------------- NicSink
    /** Polled mode never raises interrupts; these stay unreachable
     *  (the device checks `polled` before raising). */
    void rxReady(int) override {}
    void txReady(int) override {}
    void pfStateChanged(int, bool) override {} // monitor owns verdicts
    void frameLost(const nic::FiveTuple& flow,
                   std::uint32_t bytes) override;

    const char* planeName() const override { return "bypass"; }

    // --------------------------- flow-grain placement (accmon schemes)
    /** Scheme-driven placement: a direct rule write (a bypass app owns
     *  its steering table — no kernel worker to model). */
    bool placeFlow(const nic::FiveTuple& flow, int qid) override;

  private:
    friend class PollPort;

    BypassConfig cfg_;
    Mempool pool_;

    std::vector<std::unique_ptr<PollPort>> ports_;
    std::unordered_map<int, int> queuePort_;

    std::uint64_t lostBytes_ = 0;

    obs::DmaAccountant flows_; ///< Flow-grain harvest attribution.

    obs::Histogram* obRxBurst_ = nullptr;
    obs::Histogram* obTxBurst_ = nullptr;
    obs::Histogram* obOccupancy_ = nullptr;
    obs::Histogram* obE2e_ = nullptr;
};

} // namespace octo::bypass
