#include "os/netstack.hpp"

#include <algorithm>
#include <cassert>

#include "steer/steering.hpp"

namespace octo::os {

using mem::DataLoc;
using nic::RxCompletion;
using nic::TxDesc;
using sim::Task;
using sim::Tick;
using sim::delay;
using sim::fromNs;

namespace {

/** Trace lane carrying the end-to-end latency spans (one lane per
 *  netdev process keeps them out of the per-queue softirq rows). */
constexpr int kE2eTid = 999;

/** NAPI poll budget per core-hold: frames (Rx) or completions (Tx)
 *  reaped before the softirq yields its core. */
constexpr int kNapiBudget = 64;

/** Delay between a PF hot-unplug/re-probe event and the team driver
 *  acting on it (AER + hotplug handling latency). */
constexpr Tick kTeamFailoverDelay = sim::fromMs(1);

} // namespace

NetStack::NetStack(topo::Machine& machine, nic::NicDevice& device,
                   StackConfig cfg)
    : nic::QueuePlane(machine, device), cfg_(cfg)
{
    device_.setSink(this);
    if (cfg_.steerExpiry > 0)
        expiry_ = expiryWorker();
    if (cfg_.retryTimeout > 0)
        retry_ = retryWorker();
    if (obs::Hub* h = obs::hub(sim_)) {
        obs::MetricRegistry& reg = h->metrics();
        const obs::Labels l = {{"dev", device_.name()}};
        reg.counterFn("net_rx_packets", l,
                      [this] { return rxPackets_.total(); });
        reg.counterFn("net_rx_bytes", l,
                      [this] { return rxBytesDelivered_.total(); });
        reg.counterFn("net_steering_updates", l,
                      [this] { return steeringUpdates_; });
        reg.counterFn("net_steering_expiries", l,
                      [this] { return steeringExpiries_; });
        reg.counterFn("net_tx_queue_overrides", l,
                      [this] { return txQueueOverrides_; });
        reg.counterFn("net_health_resteers", l,
                      [this] { return resteersPerformed(); });
        reg.counterFn("net_pf_failovers", l,
                      [this] { return pfFailovers_; });
        reg.counterFn("net_pf_rebalances", l,
                      [this] { return pfRebalances_; });
        reg.counterFn("net_admin_drains", l,
                      [this] { return adminDrains(); });
        reg.counterFn("net_lost_bytes", l,
                      [this] { return lostBytes_; });
        reg.counterFn("net_reclaimed_bytes", l,
                      [this] { return reclaimedBytes_; });
        reg.counterFn("net_watchdog_polls", l,
                      [this] { return watchdogPolls_; });
        obRxBatch_ = &reg.histogram("softirq_rx_batch_frames", l);
        obE2e_ = &reg.histogram("latency_e2e_ns", l);
        tracePid_ = h->pidFor(device_.name());
        h->tracer().threadName(tracePid_, kE2eTid, "e2e");
    }
}

NetStack::~NetStack() = default;

void
NetStack::mapCoreToQueue(int core_id, int qid)
{
    if (core_id >= static_cast<int>(xps_.size()))
        xps_.resize(static_cast<std::size_t>(core_id) + 1, -1);
    xps_[static_cast<std::size_t>(core_id)] = qid;
}

void
NetStack::mapCoreToQueueInDomain(int core_id, int domain, int qid)
{
    xpsDomain_[(static_cast<std::int64_t>(domain) << 32) | core_id] =
        qid;
}

int
NetStack::xpsLookup(int core_id, int domain) const
{
    if (domain >= 0) [[unlikely]] {
        auto it = xpsDomain_.find(
            (static_cast<std::int64_t>(domain) << 32) | core_id);
        if (it != xpsDomain_.end())
            return it->second;
    }
    if (core_id < static_cast<int>(xps_.size())) {
        const int qid = xps_[static_cast<std::size_t>(core_id)];
        if (qid >= 0)
            return qid;
    }
    return 0;
}

int
NetStack::queueForCore(int core_id, int domain) const
{
    const int raw = xpsLookup(core_id, domain);
    if (!weightedSteering_ || txPfWeights_.empty())
        return raw;
    nic::NicDevice& dev = device_;
    const int cur = dev.queue(raw).pf->id();
    int best = 0;
    for (int p = 1; p < static_cast<int>(txPfWeights_.size()); ++p) {
        if (txPfWeights_[p] > txPfWeights_[best])
            best = p;
    }
    const double wc =
        cur < static_cast<int>(txPfWeights_.size()) ? txPfWeights_[cur]
                                                    : 1.0;
    if (cur == best || wc >= txPfWeights_[best])
        return raw;
    // Keep a proportional share of slots on the weak PF (same math and
    // SplitMix64 spread as the monitor's Rx-queue steering) so Tx load
    // degrades gradually rather than stampeding.
    const double share = steer::keepLocalShare(wc, txPfWeights_[best]);
    if (steer::keepSlot(raw, dev.queueCount(), share))
        return raw;
    const int node = machine_.core(core_id).node();
    std::vector<int> local;
    int fallback = -1;
    for (int q = 0; q < dev.queueCount(); ++q) {
        const nic::NicQueue& cand = dev.queue(q);
        if (cand.pf->id() != best)
            continue;
        if (cand.irqCore->node() == node)
            local.push_back(q);
        else if (fallback < 0)
            fallback = q;
    }
    int pick = raw;
    if (!local.empty())
        pick = local[static_cast<std::size_t>(core_id) % local.size()];
    else if (fallback >= 0)
        pick = fallback;
    if (pick != raw) {
        ++txQueueOverrides_;
        if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
            tr->instant(obs::kCatSteer, "xps_override", tracePid_, pick,
                        sim_.now(),
                        {{"core", core_id},
                         {"from_q", raw},
                         {"to_q", pick},
                         {"weak_pf", cur}});
        }
    }
    return pick;
}

Socket&
NetStack::createSocket(const nic::FiveTuple& rx_flow)
{
    return createSocket(rx_flow, cfg_.windowBytes, true);
}

Socket&
NetStack::createSocket(const nic::FiveTuple& rx_flow, std::uint64_t window,
                       bool tso)
{
    sockets_.push_back(
        std::make_unique<Socket>(sim_, rx_flow, window, tso));
    Socket& s = *sockets_.back();
    demux_[rx_flow] = &s;
    return s;
}

void
NetStack::pair(Socket& a, Socket& b)
{
    assert(a.rxFlow == b.txFlow && b.rxFlow == a.txFlow);
    a.peer = &b;
    b.peer = &a;
}

Task<>
NetStack::send(ThreadCtx& t, Socket& sock, std::uint64_t bytes,
               bool last_of_message)
{
    const auto& cal = machine_.cal();
    const Tick sent_at = sim_.now();

    // The thread may be migrated while blocked; track the core whose
    // mutex is actually held so acquire/release always pair up.
    topo::Core* held = &t.core();
    co_await held->mutex().acquire();
    co_await delay(sim_, cal.txSyscall);
    held->addBusy(cal.txSyscall);

    std::uint64_t left = bytes;
    while (left > 0) {
        const std::uint32_t max_seg = sock.tso ? (64u << 10) : cal.mtu;
        const auto seg = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, max_seg));

        // Flow-control window; never hold the core while blocked.
        if (!sock.txWindow.tryAcquire(seg)) {
            held->mutex().release();
            co_await sock.txWindow.acquire(seg);
            held = &t.core(); // a migrated thread wakes on its new core
            co_await held->mutex().acquire();
        }

        // Copy from user into a locally-allocated skb (write-allocates
        // into the cache). Cold sources additionally stream from DRAM.
        const Tick copy_cpu = fromNs(seg / cal.txCopyGBps);
        co_await delay(sim_, copy_cpu);
        held->addBusy(copy_cpu);
        if (sock.txSourceCold) {
            const Tick l = co_await machine_.memTransfer(
                t.node(), t.node(), seg, topo::MemDir::Read);
            held->addBusy(l);
        }

        // Nagle/autocork: sub-MTU writes accumulate while data is in
        // flight; a descriptor is posted once an MTU's worth gathered
        // or the pipe is otherwise idle.
        sock.coalesced += seg;
        left -= seg;
        const bool pipe_idle =
            static_cast<std::uint64_t>(sock.txWindow.count()) +
                sock.coalesced >=
            sock.windowBytes;
        const bool push = last_of_message && left == 0;
        if (sock.coalesced < cal.mtu && !pipe_idle && !push)
            continue;

        // Post the descriptor to the XPS-selected queue and ring the
        // doorbell (posted MMIO).
        const Tick post = cal.txPostSegment + cal.mmioCpuCost;
        co_await delay(sim_, post);
        held->addBusy(post);

        TxDesc d;
        d.flow = sock.txFlow;
        d.bytes = static_cast<std::uint32_t>(sock.coalesced);
        sock.coalesced = 0;
        d.skbNode = t.node();
        d.loc = DataLoc::Llc;
        d.seqStart = sock.nextTxWireSeq;
        sock.nextTxWireSeq += (d.bytes + cal.mtu - 1) / cal.mtu;
        d.sentAt = sent_at;
        d.lastOfMessage = last_of_message && left == 0;
        co_await device_.postTx(
            queueForCore(t.core().id(), sock.steerDomain), d);
    }
    held->mutex().release();
}

Task<>
NetStack::recv(ThreadCtx& t, Socket& sock, std::uint64_t bytes)
{
    const auto& cal = machine_.cal();

    // ARFS: the kernel notices the consuming thread's CPU on each recv
    // and asks the driver to re-steer the flow when it moved (§2.3).
    if (sock.lastRxCore != t.core().id()) {
        flowMoved(sock, t.core());
        sock.lastRxCore = t.core().id();
    }

    topo::Core* held = &t.core();
    co_await held->mutex().acquire();
    co_await delay(sim_, cal.rxSyscall);
    held->addBusy(cal.rxSyscall);

    std::uint64_t need = bytes;
    while (need > 0) {
        if (sock.rxq.empty()) {
            held->mutex().release();
            co_await sock.dataReady.wait();
            held = &t.core(); // wake on the (possibly new) core
            co_await held->mutex().acquire();
            co_await delay(sim_, cal.wakeupCost);
            held->addBusy(cal.wakeupCost);
            continue;
        }
        RxSeg& front = sock.rxq.front();
        const auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(front.bytes, need));
        RxSeg part = front;
        part.bytes = take;
        const Tick spent = co_await copySegIn(t.node(), part);
        held->addBusy(spent);
        need -= take;
        sock.rxBytesAvail -= take;
        sock.bytesDelivered += take;

        // End-to-end latency: NIC wire arrival of the segment's first
        // frame to this copy into user memory. Recorded once per
        // segment (the stamp is cleared so a partial read of the same
        // segment does not double-count).
        if (front.arrivedAt > 0) {
            const Tick e2e = sim_.now() - front.arrivedAt;
            if (obE2e_ != nullptr)
                obE2e_->record(sim::toNs(e2e));
            if (auto* tr = obs::tracer(sim_, obs::kCatApp)) {
                tr->complete(obs::kCatApp, "e2e", tracePid_, kE2eTid,
                             front.arrivedAt, sim_.now(),
                             {{"bytes", static_cast<std::uint64_t>(
                                            front.bytes)}});
            }
            front.arrivedAt = 0;
        }

        if (take == front.bytes)
            sock.rxq.pop_front();
        else
            front.bytes -= take;

        // Abstracted ack/receive-window update: consuming frees socket
        // buffer; the sender's credit returns after one wire flight.
        if (sock.peer != nullptr) {
            Socket* peer = sock.peer;
            sim_.scheduleIn(
                cal.wireLatency + fromNs(500),
                sim::Domain{static_cast<std::int8_t>(t.node()), -1},
                [peer, take] { peer->txWindow.release(take); });
        }
    }
    held->mutex().release();
}

Task<Tick>
NetStack::copySegIn(int node, const RxSeg& seg)
{
    const auto& cal = machine_.cal();
    const Tick start = sim_.now();

    std::uint64_t hit = 0;
    std::uint64_t miss = 0;
    if (seg.loc == DataLoc::Llc && seg.node == node) {
        // DDIO put the payload in this node's LLC; under cache pressure
        // a fraction has been evicted by the time we copy.
        const double hf = machine_.llc(node).hitFraction();
        hit = static_cast<std::uint64_t>(seg.bytes * hf);
        miss = seg.bytes - hit;
    } else {
        // DRAM-resident, or cached in the *other* node's LLC (steering
        // lag) — either way the lines stream over the memory path.
        miss = seg.bytes;
    }

    const Tick cpu =
        fromNs(hit / cal.copyLlcGBps + miss / cal.copyMissCpuGBps);
    co_await delay(sim_, cpu);
    if (miss > 0) {
        // The missing lines stream over the memory path (and the
        // interconnect when the buffer is remote), and the copy
        // destination is written back — the paper's observed 3x memory
        // bandwidth for remote Rx (Fig. 6b). Short copies overlap the
        // leading-edge miss latency with prefetch/OOO execution.
        const double exposure = std::min(1.0, miss / 2048.0);
        co_await machine_.memTransfer(node, seg.node, miss,
                                      topo::MemDir::Read, exposure);
        machine_.dram(node).reserve(miss);
    }
    co_return sim_.now() - start;
}

Task<>
NetStack::rawPost(ThreadCtx& t, const nic::FiveTuple& flow,
                  std::uint32_t bytes, sim::Semaphore& inflight)
{
    const auto& cal = machine_.cal();
    topo::Core* held = &t.core();
    co_await held->mutex().acquire();
    co_await delay(sim_, cal.pktgenPerPacket);
    held->addBusy(cal.pktgenPerPacket);

    TxDesc d;
    d.flow = flow;
    d.bytes = bytes;
    d.skbNode = t.node();
    d.loc = DataLoc::Llc;
    d.fastPath = true;
    d.completionSem = &inflight;
    d.sentAt = sim_.now();
    co_await device_.postTx(queueForCore(t.core().id()), d);
    held->mutex().release();
}

void
NetStack::rxReady(int qid)
{
    Tick extra = 0;
    if (irqFaultFilter(qid, /*rx=*/true, extra))
        return;
    if (extra > 0) {
        sim_.scheduleIn(extra, [this, qid] { softirqRx(qid).detach(); });
        return;
    }
    softirqRx(qid).detach();
}

void
NetStack::txReady(int qid)
{
    Tick extra = 0;
    if (irqFaultFilter(qid, /*rx=*/false, extra))
        return;
    if (extra > 0) {
        sim_.scheduleIn(extra, [this, qid] { softirqTx(qid).detach(); });
        return;
    }
    softirqTx(qid).detach();
}

bool
NetStack::irqFaultFilter(int qid, bool rx, Tick& delay)
{
    if (irqDropEvery_ > 0 && (++irqSeen_ % irqDropEvery_) == 0) {
        // The interrupt is lost; the queue's IRQ stays disarmed, so
        // without the watchdog poll it would sit dead until teardown.
        ++irqsDropped_;
        sim_.scheduleIn(cfg_.irqWatchdog, [this, qid, rx] {
            ++watchdogPolls_;
            if (rx)
                softirqRx(qid).detach();
            else
                softirqTx(qid).detach();
        });
        return true;
    }
    delay = irqExtraDelay_;
    return false;
}

void
NetStack::frameLost(const nic::FiveTuple& flow, std::uint32_t bytes)
{
    ++lostFrames_;
    lostBytes_ += bytes;
    // Rx drop at our device: `flow` is some socket's incoming flow.
    if (auto it = demux_.find(flow); it != demux_.end()) {
        it->second->lostRxBytes += bytes;
        it->second->lastLossAt = sim_.now();
        return;
    }
    // Tx abort at our device: `flow` is the transmit direction, i.e. the
    // reverse of the owning socket's demux key.
    if (auto it = demux_.find(flow.reversed()); it != demux_.end()) {
        it->second->lostTxBytes += bytes;
        it->second->lastLossAt = sim_.now();
    }
}

void
NetStack::pfStateChanged(int pf_idx, bool up)
{
    if (!cfg_.teamFailover)
        return;
    // Surprise removal surfaces through AER/hotplug with a detection
    // latency; the driver reacts only then. State is re-checked at apply
    // time in case the event was superseded (flap).
    sim_.scheduleIn(kTeamFailoverDelay,
                    [this, pf_idx, up] { applyPfEvent(pf_idx, up); });
}

void
NetStack::applyPfEvent(int pf_idx, bool up)
{
    // A health monitor owns PF verdicts in weighted-steering mode; the
    // all-or-nothing failover below would fight its gradual probation
    // rebalance (and double-rebind queues), so it stands down. Each
    // move below is a queue-plane resteer: the firmware RPC, the
    // watchdog-bounded drain of the old binding and the epoch guard
    // apply exactly as they do to a monitor verdict.
    if (weightedSteering_)
        return;
    nic::NicDevice& dev = device_;
    if (!up) {
        if (dev.function(pf_idx).linkUp())
            return; // recovered before the driver reacted
        for (int qid = 0; qid < dev.queueCount(); ++qid) {
            nic::NicQueue& q = dev.queue(qid);
            if (q.pf->id() != pf_idx)
                continue;
            // Prefer the survivor local to the IRQ core; temporary NUDMA
            // beats an outage (the bonding-device view of the octoNIC).
            pcie::PciFunction* survivor =
                dev.pfForNodeAlive(q.irqCore->node());
            if (survivor == nullptr || survivor->id() == pf_idx)
                continue; // total PCIe outage: nothing to steer to
            resteerQueue(qid, survivor->id());
            ++pfFailovers_;
            if (auto* tr = obs::tracer(sim_, obs::kCatHealth)) {
                tr->instant(obs::kCatHealth, "pf_failover", tracePid_,
                            qid, sim_.now(),
                            {{"qid", qid},
                             {"dead_pf", pf_idx},
                             {"to_pf", survivor->id()},
                             {"reason", "pf_link_down"}});
            }
        }
        return;
    }
    if (!dev.function(pf_idx).linkUp())
        return; // died again before the re-probe settled
    for (int qid = 0; qid < dev.queueCount(); ++qid) {
        nic::NicQueue& q = dev.queue(qid);
        if (q.homePf->id() != pf_idx || q.pf == q.homePf)
            continue;
        resteerQueue(qid, pf_idx);
        ++pfRebalances_;
        if (auto* tr = obs::tracer(sim_, obs::kCatHealth)) {
            tr->instant(obs::kCatHealth, "pf_rebalance", tracePid_, qid,
                        sim_.now(),
                        {{"qid", qid},
                         {"home_pf", pf_idx},
                         {"reason", "pf_link_restored"}});
        }
    }
}

Task<>
NetStack::retryWorker()
{
    // RTO-style reclamation: bytes lost inside a NIC hold window credits
    // at their sender. Once a connection has been loss-quiet for a full
    // retryTimeout, the abstracted retransmission is considered
    // delivered and the credits return. (The byte stream itself is not
    // re-injected — TCP data recovery is abstracted the same way acks
    // are; what must not leak is the flow-control descriptor state.)
    for (;;) {
        co_await delay(sim_, cfg_.retryTimeout / 2);
        for (auto& s : sockets_) {
            const std::uint64_t peer_lost =
                s->peer != nullptr ? s->peer->lostRxBytes : 0;
            const std::uint64_t lost = s->lostTxBytes + peer_lost;
            if (lost <= s->reclaimedBytes)
                continue;
            Tick last = s->lastLossAt;
            if (s->peer != nullptr)
                last = std::max(last, s->peer->lastLossAt);
            if (sim_.now() - last < cfg_.retryTimeout)
                continue;
            const std::uint64_t pending = lost - s->reclaimedBytes;
            s->reclaimedBytes += pending;
            s->txWindow.release(
                static_cast<std::int64_t>(pending));
            reclaimedBytes_ += pending;
            ++retryReclaims_;
        }
    }
}

Task<>
NetStack::softirqRx(int qid)
{
    nic::NicQueue& q = device_.queue(qid);
    topo::Core& c = *q.irqCore;
    const auto& cal = machine_.cal();

    const Tick so_start = sim_.now();
    int so_frames = 0;
    co_await c.mutex().acquire();
    int in_hold = 0;
    for (;;) {
        auto oc = q.rxCq.tryPop();
        if (!oc)
            break;
        RxCompletion comp = *oc;
        const Tick t0 = sim_.now();

        // Read the completion entry the device wrote (the NUDMA term),
        // then the per-frame driver work.
        co_await cqeRead(q, comp.cqeLoc, comp.bufNode, c);
        co_await delay(sim_, cal.rxFrameKernel);
        int frames = 1;
        std::uint32_t merged = comp.frame.payloadBytes;

        // GRO: merge immediately-following in-order frames of the same
        // flow into one segment before handing it to the stack.
        while (merged < cal.groMaxBytes &&
               in_hold + frames < kNapiBudget) {
            const RxCompletion* next = q.rxCq.peek();
            if (next == nullptr || !(next->frame.flow == comp.frame.flow) ||
                next->frame.seq != comp.frame.seq + frames ||
                next->dataLoc != comp.dataLoc) {
                break;
            }
            RxCompletion f = *q.rxCq.tryPop();
            co_await cqeRead(q, f.cqeLoc, f.bufNode, c);
            co_await delay(sim_, cal.rxFrameKernel);
            merged += f.frame.payloadBytes;
            ++frames;
        }

        // Per-segment protocol/socket work.
        co_await delay(sim_, cal.rxSegmentKernel);
        c.addBusy(sim_.now() - t0);

        q.rxCredits.release(frames); // replenish the Rx ring
        q.rxReaped += frames;
        rxPackets_.add(frames);
        so_frames += frames;

        if (auto it = demux_.find(comp.frame.flow); it != demux_.end()) {
            Socket* s = it->second;
            s->lastRxAt = sim_.now();
            if (comp.frame.seq != s->expectedRxSeq)
                ++s->oooEvents;
            s->expectedRxSeq = comp.frame.seq + frames;
            s->rxq.push_back(RxSeg{merged, comp.dataLoc, comp.bufNode,
                                   comp.frame.sentAt,
                                   comp.frame.arrivedAt});
            s->rxBytesAvail += merged;
            rxBytesDelivered_.add(merged);
            s->dataReady.notify();
        }

        // NAPI budget: yield the core so application threads interleave.
        in_hold += frames;
        if (in_hold >= kNapiBudget) {
            in_hold = 0;
            c.mutex().release();
            co_await delay(sim_, 0);
            co_await c.mutex().acquire();
        }
    }
    c.mutex().release();
    if (obRxBatch_ != nullptr)
        obRxBatch_->record(so_frames);
    if (auto* tr = obs::tracer(sim_, obs::kCatQueue)) {
        tr->complete(obs::kCatQueue, "softirq_rx", tracePid_, qid,
                     so_start, sim_.now(), {{"frames", so_frames}});
    }
    device_.rearmRxIrq(qid);
}

Task<>
NetStack::softirqTx(int qid)
{
    nic::NicQueue& q = device_.queue(qid);
    topo::Core& c = *q.irqCore;
    const auto& cal = machine_.cal();

    const Tick so_start = sim_.now();
    int so_comps = 0;
    co_await c.mutex().acquire();
    int in_hold = 0;
    for (;;) {
        auto oc = q.txCq.tryPop();
        if (!oc)
            break;
        const nic::TxCompletion& comp = *oc;
        const Tick t0 = sim_.now();
        if (comp.cqeLoc == DataLoc::Llc && q.bufNode == c.node()) {
            co_await delay(sim_, cal.llcLatency);
        } else if (comp.cqeLoc == DataLoc::Llc) {
            // Completion ring homed on the device's node: entry is
            // forwarded cache-to-cache across the interconnect (§2.4).
            co_await delay(sim_, cal.qpiLatency + cal.llcLatency);
        } else {
            co_await machine_.memTransfer(c.node(), q.bufNode,
                                          64ull * cal.cqeLines,
                                          topo::MemDir::Read);
        }
        const Tick handler = comp.desc.fastPath ? cal.txCompletionFast
                                                : cal.txCompletionTcp;
        co_await delay(sim_, handler);
        c.addBusy(sim_.now() - t0);
        if (comp.desc.completionSem != nullptr)
            comp.desc.completionSem->release();
        ++so_comps;

        if (++in_hold >= kNapiBudget) {
            in_hold = 0;
            c.mutex().release();
            co_await delay(sim_, 0);
            co_await c.mutex().acquire();
        }
    }
    c.mutex().release();
    if (auto* tr = obs::tracer(sim_, obs::kCatQueue)) {
        tr->complete(obs::kCatQueue, "softirq_tx", tracePid_, qid,
                     so_start, sim_.now(),
                     {{"completions", so_comps}});
    }
    device_.rearmTxIrq(qid);
}

Task<>
NetStack::expiryWorker()
{
    // The driver's periodic rule-expiry thread (§4.2): forget steering
    // state for flows that went quiet; their next packets fall back to
    // RSS until the ARFS callback re-installs a rule.
    for (;;) {
        co_await delay(sim_, cfg_.steerExpiry);
        for (auto& s : sockets_) {
            if (s->lastRxCore < 0)
                continue;
            if (sim_.now() - s->lastRxAt > cfg_.steerExpiry) {
                device_.unsteerFlow(s->rxFlow);
                s->lastRxCore = -1; // next recv re-installs
                ++steeringExpiries_;
            }
        }
    }
}

void
NetStack::flowMoved(Socket& sock, topo::Core& core)
{
    if (xps_.empty())
        return;
    // Raw XPS pick: ARFS rules are sticky until the thread moves again,
    // so steering them by transient health weights would strand flows
    // on a once-degraded PF's queues after recovery.
    const int new_q = xpsLookup(core.id(), sock.steerDomain);
    const int old_q = device_.classify(sock.rxFlow);
    if (old_q == new_q)
        return;
    // A socket pinned to one netdev cannot be re-steered to queues of
    // another physical device (§2.5 two-NICs limitation).
    if (sock.steerDomain >= 0 && queueDomain(new_q) != sock.steerDomain)
        return;
    ++steeringUpdates_;
    applySteer(sock.rxFlow, old_q, new_q).detach();
}

Task<>
NetStack::applySteer(nic::FiveTuple flow, int old_qid, int new_qid)
{
    const auto& cal = machine_.cal();
    // Asynchronous kernel-worker update (§4.2)...
    co_await delay(sim_, cal.arfsUpdateDelay);
    // ...applied once the packets enqueued on the old queue before the
    // update have been processed (the ooo_okay/drain discipline). Under
    // continuous load the queue is never *empty*, so wait for the
    // completion counter to pass the snapshot instead.
    // The wait is watchdog-bounded: a stalled source queue must not
    // wedge the steering worker (the rule is applied anyway, accepting
    // a transient reordering window).
    co_await drainQueue(old_qid);
    if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
        tr->instant(obs::kCatSteer, "arfs_steer", tracePid_, new_qid,
                    sim_.now(),
                    {{"flow", nic::NicDevice::flowLabel(flow)},
                     {"from_q", old_qid},
                     {"to_q", new_qid}});
    }
    device_.steerFlow(flow, new_qid);
}

bool
NetStack::placeFlow(const nic::FiveTuple& flow, int qid)
{
    if (qid < 0 || qid >= device_.queueCount())
        return false;
    const int old_qid = device_.classify(flow);
    if (old_qid == qid)
        return true;
    applySteer(flow, old_qid, qid).detach();
    return true;
}

} // namespace octo::os
