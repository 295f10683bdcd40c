#include "nic/device.hpp"

#include <algorithm>
#include <cassert>

#include "accmon/monitor.hpp"

namespace octo::nic {

NicDevice::NicDevice(topo::Machine& host, std::string name)
    : host_(host), name_(std::move(name)), sim_(host.sim()),
      devId_(host.sim().allocDeviceId()),
      flows_(obs::hub(host.sim()), name_)
{
    if (obs::Hub* h = obs::hub(sim_)) {
        obs::MetricRegistry& reg = h->metrics();
        const obs::Labels l = {{"dev", name_}};
        reg.counterFn("nic_rx_drops", l, [this] { return rxDrops_; });
        reg.counterFn("nic_dead_pf_drops", l,
                      [this] { return deadPfDrops_; });
        reg.counterFn("nic_tx_aborts", l, [this] { return txAborts_; });
        reg.gaugeFn("nic_steering_rules", l, [this] {
            return static_cast<double>(steering_.size());
        });
        tracePid_ = h->pidFor(name_);
    }
}

NicDevice::~NicDevice()
{
    for (auto& q : queues_) {
        sim_.release(q->rxIrqEv);
        sim_.release(q->txIrqEv);
    }
}

/** Domain tag for events this device schedules on behalf of @p q. */
sim::Domain
NicDevice::irqDomain(const NicQueue& q) const
{
    return sim::Domain{
        static_cast<std::int8_t>(q.irqCore->node()),
        static_cast<std::int8_t>(devId_ < 15 ? devId_ : -1)};
}

pcie::PciFunction&
NicDevice::addFunction(int node, int lanes)
{
    const int id = static_cast<int>(pfs_.size());
    pfs_.push_back(std::make_unique<pcie::PciFunction>(
        host_, node, lanes, id, name_ + ".pf" + std::to_string(id)));
    pfStats_.push_back({});
    return *pfs_.back();
}

int
NicDevice::addQueue(topo::Core& irq_core, pcie::PciFunction& pf,
                    int ring_entries)
{
    const int qid = static_cast<int>(queues_.size());
    queues_.push_back(std::make_unique<NicQueue>(sim_, qid, &irq_core,
                                                 &pf, ring_entries));
    if (obs::Hub* h = obs::hub(sim_)) {
        const obs::Labels l = {{"dev", name_},
                               {"queue", std::to_string(qid)}};
        NicQueue* q = queues_.back().get();
        h->metrics().counterFn("nic_rx_frames", l,
                               [q] { return q->rxFrames.total(); });
        h->metrics().counterFn("nic_tx_frames", l,
                               [q] { return q->txFrames.total(); });
        h->tracer().threadName(tracePid_, qid,
                               "q" + std::to_string(qid));
    }
    return qid;
}

int
NicDevice::addNetdev(std::uint32_t ip, std::vector<int> qids)
{
    netdevs_.push_back(NetdevView{ip, std::move(qids)});
    return static_cast<int>(netdevs_.size()) - 1;
}

void
NicDevice::start()
{
    for (int q = 0; q < queueCount(); ++q)
        engines_.push_back(txEngine(q));
}

void
NicDevice::setQueuePolled(int qid)
{
    NicQueue& q = *queues_.at(qid);
    q.polled = true;
    q.rxIrqArmed = false;
    q.txIrqArmed = false;
}

void
NicDevice::steerFlow(const FiveTuple& flow, int qid)
{
    steering_[flow] = qid;
    if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
        tr->instant(obs::kCatSteer, "steer_rule", tracePid_, qid,
                    sim_.now(),
                    {{"flow", flowLabel(flow)}, {"qid", qid}});
    }
}

void
NicDevice::unsteerFlow(const FiveTuple& flow)
{
    const auto it = steering_.find(flow);
    if (it == steering_.end())
        return;
    if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
        tr->instant(obs::kCatSteer, "unsteer_rule", tracePid_,
                    it->second, sim_.now(),
                    {{"flow", flowLabel(flow)}});
    }
    steering_.erase(it);
}

int
NicDevice::classify(const FiveTuple& flow) const
{
    if (auto it = steering_.find(flow); it != steering_.end())
        return it->second;
    // RSS fallback within the owning netdev. In bond mode the switch's
    // hash chooses the member link (§2.5) — it knows nothing about
    // where the consuming thread runs; otherwise the destination
    // address selects the netdev (first netdev is the default domain).
    const NetdevView* nd = netdevs_.empty() ? nullptr : &netdevs_[0];
    if (bondMode_ && !netdevs_.empty()) {
        nd = &netdevs_[(flow.hash() >> 32) % netdevs_.size()];
    } else {
        for (const auto& view : netdevs_) {
            if (view.ip == flow.dstIp) {
                nd = &view;
                break;
            }
        }
    }
    assert(nd && !nd->qids.empty());
    return nd->qids[flow.hash() % nd->qids.size()];
}

void
NicDevice::acceptFrame(const Frame& f)
{
    rxPath(f).detach();
}

Task<>
NicDevice::rxPath(Frame f)
{
    f.arrivedAt = sim_.now(); // Opens the e2e latency span.
    const int qid = classify(f.flow);
    if (accmon_ != nullptr)
        accmon_->record(f.flow, f.payloadBytes, qid);
    NicQueue& q = *queues_.at(qid);
    if (!q.pf->linkUp()) {
        // Surprise-removed endpoint: the DMA cannot be issued and the
        // frame is lost before any ring credit is consumed. The sink's
        // loss accounting is what lets the sender's retry/timeout path
        // reclaim the in-flight window instead of leaking it.
        ++rxDrops_;
        ++deadPfDrops_;
        ++pfStats_.at(q.pf->id()).deadDrops;
        if (sink_ != nullptr)
            sink_->frameLost(f.flow, f.payloadBytes);
        co_return;
    }
    if (q.pf->grayDropSample()) {
        // Gray completion loss: the frame vanishes with no AER event,
        // no dead-PF drop, no per-PF stat — stock telemetry stays
        // flat. Only the sink's byte accounting learns of it, which is
        // what the retry path needs to reclaim the window credit.
        if (sink_ != nullptr)
            sink_->frameLost(f.flow, f.payloadBytes);
        co_return;
    }
    if (q.stalledUntil > sim_.now())
        co_await sim::delay(sim_, q.stalledUntil - sim_.now());
    if (!q.rxCredits.tryAcquire()) {
        ++rxDrops_; // Rx ring overrun: the frame is lost.
        co_return;
    }
    RxCompletion c;
    c.frame = f;
    c.bufNode = q.bufNode;
    // Each write is attributed the moment it completes — the same
    // resumption chain as the PF's own recordDma — so flow-grain and
    // PF-grain rows agree exactly even when a run horizon lands
    // between the payload and CQE writes.
    c.dataLoc = co_await q.pf->dmaWrite(q.bufNode, f.payloadBytes);
    if (flows_.active()) {
        flows_.record<flowLabel>(f.flow.hash(), f.flow, f.payloadBytes,
                                 q.pf->node() == q.bufNode,
                                 c.dataLoc == mem::DataLoc::Llc);
    }
    c.cqeLoc = co_await q.pf->dmaWrite(q.bufNode, 64);
    if (flows_.active()) {
        flows_.record<flowLabel>(f.flow.hash(), f.flow, 64,
                                 q.pf->node() == q.bufNode,
                                 c.cqeLoc == mem::DataLoc::Llc);
    }
    q.rxFrames.add();
    q.rxCq.tryPush(c); // capacity == ring credits: cannot fail
    maybeRaiseRxIrq(q);
}

Task<>
NicDevice::txEngine(int qid)
{
    NicQueue& q = *queues_.at(qid);
    for (;;) {
        TxDesc d = co_await q.txRing.pop();
        // Per-descriptor device processing gap; the descriptor itself is
        // handled by a pipelined task so DMA fetches overlap.
        txProcess(q, d).detach();
        co_await sim::delay(sim_, txIssueGap_);
    }
}

pcie::PciFunction&
NicDevice::pfForNode(int node)
{
    for (auto& pf : pfs_) {
        if (pf->node() == node)
            return *pf;
    }
    return *pfs_.front();
}

pcie::PciFunction*
NicDevice::pfForNodeAlive(int node)
{
    for (auto& pf : pfs_) {
        if (pf->node() == node && pf->linkUp())
            return pf.get();
    }
    for (auto& pf : pfs_) {
        if (pf->linkUp())
            return pf.get();
    }
    return nullptr;
}

void
NicDevice::setPfLink(int idx, bool up)
{
    pcie::PciFunction& pf = *pfs_.at(idx);
    if (pf.linkUp() == up)
        return;
    pf.setLinkUp(up);
    if (up)
        ++pfRecoveries_;
    else
        ++pfKills_;
    if (sink_ != nullptr)
        sink_->pfStateChanged(idx, up);
}

void
NicDevice::rebindQueue(int qid, pcie::PciFunction& pf)
{
    queues_.at(qid)->pf = &pf;
}

void
NicDevice::stallQueue(int qid, Tick duration)
{
    NicQueue& q = *queues_.at(qid);
    const Tick until = sim_.now() + duration;
    q.stalledUntil = std::max(q.stalledUntil, until);
    ++q.stallEvents;
    ++queueStallEvents_;
}

void
NicDevice::poisonQueue(int qid, Tick duration)
{
    NicQueue& q = *queues_.at(qid);
    const Tick until = sim_.now() + duration;
    q.poisonedUntil = std::max(q.poisonedUntil, until);
    ++q.poisonEvents;
    ++queuePoisonEvents_;
}

Task<>
NicDevice::txProcess(NicQueue& q, TxDesc d)
{
    const auto& cal = host_.cal();
    if (q.stalledUntil > sim_.now())
        co_await sim::delay(sim_, q.stalledUntil - sim_.now());
    if (!q.pf->linkUp()) {
        // Dead endpoint: the descriptor fetch fails (all-ones read).
        // The driver's flush path synthesizes an error completion so the
        // skb is freed rather than leaked; the payload never reaches the
        // wire, so the sink records the loss for window reclamation.
        ++txAborts_;
        ++pfStats_.at(q.pf->id()).txAborts;
        if (sink_ != nullptr)
            sink_->frameLost(d.flow, d.bytes);
        TxCompletion tc;
        tc.desc = d;
        tc.cqeLoc = mem::DataLoc::Dram;
        q.txCq.tryPush(tc);
        maybeRaiseTxIrq(q);
        co_return;
    }
    // Fetch descriptor + payload via this queue's PF. The descriptor is
    // folded into the payload read (64 extra bytes).
    const std::uint32_t main_bytes =
        d.bytes > d.spanBytes ? d.bytes - d.spanBytes : 0;
    co_await q.pf->dmaRead(d.skbNode, main_bytes + 64, d.loc);
    if (flows_.active()) {
        const bool local = q.pf->node() == d.skbNode;
        flows_.record<flowLabel>(d.flow.hash(), d.flow, main_bytes + 64,
                                 local,
                                 d.loc == mem::DataLoc::Llc && local);
    }
    if (d.spanBytes > 0) {
        // Cross-node fragment: with IOctoSG the driver's hint routes the
        // fetch through the fragment's local PF; otherwise the queue's
        // PF reads it across the interconnect (NUDMA). A dead fragment
        // PF falls back to the queue's own endpoint.
        pcie::PciFunction* frag_pf =
            octoSg_ ? &pfForNode(d.spanNode) : q.pf;
        if (!frag_pf->linkUp())
            frag_pf = q.pf;
        co_await frag_pf->dmaRead(d.spanNode, d.spanBytes, d.loc);
        if (flows_.active()) {
            const bool local = frag_pf->node() == d.spanNode;
            flows_.record<flowLabel>(
                d.flow.hash(), d.flow, d.spanBytes, local,
                d.loc == mem::DataLoc::Llc && local);
        }
    }

    // Segment onto the wire (TSO, §2.3): reserve wire slots so
    // back-to-back descriptors pipeline rather than serialize on
    // propagation delay.
    assert(wire_);
    NicDevice* peer = wire_->peer(this);
    sim::Pipe& tx_wire = wire_->towards(peer);
    std::uint32_t left = d.bytes;
    std::uint64_t seq = d.seqStart;
    while (left > 0) {
        const std::uint32_t chunk = std::min(cal.mtu, left);
        left -= chunk;
        Frame f;
        f.flow = d.flow;
        f.payloadBytes = chunk;
        f.seq = seq++;
        f.sentAt = d.sentAt;
        f.lastOfMessage = d.lastOfMessage && left == 0;
        const Tick arrival = tx_wire.reserve(cal.wireBytes(chunk));
        q.txFrames.add();
        sim_.schedule(
            arrival,
            sim::Domain{-1, static_cast<std::int8_t>(
                                devId_ < 15 ? devId_ : -1)},
            [peer, f] { peer->acceptFrame(f); });
    }

    if (d.probe && q.pf->grayDropSample()) {
        // A gray PF swallows the probe's completion: the prober sees a
        // watchdog timeout (a huge RTT outlier) instead of a wedged
        // tenant semaphore — probe descriptors hold no window credit.
        co_return;
    }
    TxCompletion tc;
    tc.desc = d;
    tc.cqeLoc = co_await q.pf->dmaWrite(q.bufNode, 64);
    if (flows_.active()) {
        flows_.record<flowLabel>(d.flow.hash(), d.flow, 64,
                                 q.pf->node() == q.bufNode,
                                 tc.cqeLoc == mem::DataLoc::Llc);
    }
    q.txCq.tryPush(tc);
    maybeRaiseTxIrq(q);
}

Tick
NicDevice::irqLatencyFor(const NicQueue& q) const
{
    Tick lat = host_.cal().irqDelivery;
    if (q.pf->node() != q.irqCore->node())
        lat += host_.cal().qpiLatency;
    return lat;
}

void
NicDevice::maybeRaiseRxIrq(NicQueue& q)
{
    if (!q.rxIrqArmed || sink_ == nullptr)
        return;
    q.rxIrqArmed = false;
    // The armed flag guarantees at most one outstanding raise per
    // queue, so a single pre-allocated event per direction suffices
    // (DESIGN.md §11); re-raising is a zero-setup re-arm.
    if (!q.rxIrqEv.valid()) {
        q.rxIrqEv = sim_.makeEvent(
            [this, &q] { sink_->rxReady(q.id); }, irqDomain(q));
    }
    sim_.scheduleIn(irqLatencyFor(q) + rxCoalesce_, q.rxIrqEv);
}

void
NicDevice::maybeRaiseTxIrq(NicQueue& q)
{
    if (!q.txIrqArmed || sink_ == nullptr)
        return;
    q.txIrqArmed = false;
    if (!q.txIrqEv.valid()) {
        q.txIrqEv = sim_.makeEvent(
            [this, &q] { sink_->txReady(q.id); }, irqDomain(q));
    }
    sim_.scheduleIn(irqLatencyFor(q), q.txIrqEv);
}

void
NicDevice::rearmRxIrq(int qid)
{
    NicQueue& q = *queues_.at(qid);
    if (q.polled)
        return;
    q.rxIrqArmed = true;
    if (!q.rxCq.empty())
        maybeRaiseRxIrq(q);
}

void
NicDevice::rearmTxIrq(int qid)
{
    NicQueue& q = *queues_.at(qid);
    if (q.polled)
        return;
    q.txIrqArmed = true;
    if (!q.txCq.empty())
        maybeRaiseTxIrq(q);
}

std::string
NicDevice::flowLabel(const FiveTuple& f)
{
    auto ip = [](std::uint32_t a) {
        return std::to_string(a >> 24) + '.' +
               std::to_string((a >> 16) & 0xFF) + '.' +
               std::to_string((a >> 8) & 0xFF) + '.' +
               std::to_string(a & 0xFF);
    };
    return ip(f.srcIp) + ':' + std::to_string(f.srcPort) + '>' +
           ip(f.dstIp) + ':' + std::to_string(f.dstPort);
}

std::uint64_t
NicDevice::pfRxBytes(int idx) const
{
    return pfs_.at(idx)->toHost().totalBytes();
}

std::uint64_t
NicDevice::pfTxBytes(int idx) const
{
    return pfs_.at(idx)->fromHost().totalBytes();
}

} // namespace octo::nic
