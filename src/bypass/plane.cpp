#include "bypass/plane.hpp"

#include <algorithm>
#include <cassert>

#include "obs/hub.hpp"

namespace octo::bypass {

using mem::DataLoc;
using sim::delay;

namespace {
/** Trace lane collecting per-packet e2e spans (same convention as the
 *  kernel stack's lane, so the two compare side by side in Perfetto). */
constexpr int kE2eTid = 999;
} // namespace

// ------------------------------------------------------------- PollPort

PollPort::PollPort(PollPlane& plane, topo::Core& core, int qid)
    : plane_(plane), qid_(qid), core_(core)
{
}

Task<int>
PollPort::rxBurst(RxPacket* out, int max)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    const auto& cal = pl.machine_.cal();
    max = std::clamp(max, 1, pl.cfg_.burst);

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    int n = 0;
    std::uint64_t bytes = 0;
    while (n < max) {
        auto oc = q.rxCq.tryPop();
        if (!oc)
            break;
        const nic::RxCompletion& c = *oc;
        co_await pl.cqeRead(q, c.cqeLoc, c.bufNode, core_);
        co_await delay(pl.sim_, cal.bypassRxPerFrame);
        out[n].frame = c.frame;
        out[n].loc = c.dataLoc;
        out[n].node = c.bufNode;
        bytes += c.frame.payloadBytes;
        // The harvested buffer now belongs to the application; refill
        // the ring slot from the node arena (or owe it a refill).
        if (pl.pool_.tryAlloc(q.bufNode))
            q.rxCredits.release(1);
        else
            ++pendingRefill_;
        ++n;
    }
    ++polls_;
    if (n == 0) {
        ++emptyPolls_;
        co_await delay(pl.sim_, cal.bypassEmptyPoll);
    }
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    q.rxReaped += n;
    rxFrames_.add(static_cast<std::uint64_t>(n));
    rxBytes_.add(bytes);

    // Observation only below this line: no awaits, no model writes.
    const Tick now = pl.sim_.now();
    if (pl.flows_.active()) {
        // Attribute harvested payloads at delivery grain: locality is
        // the queue's PF vs the buffer node, DDIO outcome is the
        // payload residency the device's write left behind.
        for (int i = 0; i < n; ++i) {
            const nic::Frame& f = out[i].frame;
            pl.flows_.record<nic::NicDevice::flowLabel>(
                f.flow.hash(), f.flow, f.payloadBytes,
                q.pf->node() == out[i].node, out[i].loc == DataLoc::Llc);
        }
    }
    if (pl.obRxBurst_ != nullptr)
        pl.obRxBurst_->record(n);
    if (pl.obOccupancy_ != nullptr)
        pl.obOccupancy_->record(100.0 * n / pl.cfg_.burst);
    for (int i = 0; i < n; ++i) {
        const Tick arrived = out[i].frame.arrivedAt;
        if (pl.obE2e_ != nullptr)
            pl.obE2e_->record(sim::toNs(now - arrived));
        if (auto* tr = obs::tracer(pl.sim_, obs::kCatApp)) {
            tr->complete(obs::kCatApp, "e2e", pl.tracePid_, kE2eTid,
                         arrived, now,
                         {{"bytes", static_cast<std::uint64_t>(
                                        out[i].frame.payloadBytes)}});
        }
    }
    if (n > 0) {
        if (auto* tr = obs::tracer(pl.sim_, obs::kCatQueue)) {
            tr->complete(obs::kCatQueue, "poll_rx", pl.tracePid_, qid_,
                         t0, now, {{"frames", n}});
        }
    }
    co_return n;
}

Task<int>
PollPort::txBurst(const nic::FiveTuple& flow, std::uint32_t bytes,
                  int count, sim::Semaphore* completion_sem)
{
    PollPlane& pl = plane_;
    const auto& cal = pl.machine_.cal();
    count = std::clamp(count, 1, pl.cfg_.burst);

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    std::uint64_t& seq = txSeq_[flow];
    for (int i = 0; i < count; ++i) {
        co_await delay(pl.sim_, cal.bypassTxPerFrame);
        nic::TxDesc d;
        d.flow = flow;
        d.bytes = bytes;
        d.skbNode = core_.node();
        d.loc = DataLoc::Llc;
        d.fastPath = true;
        d.completionSem = completion_sem;
        d.sentAt = pl.sim_.now();
        d.seqStart = seq;
        seq += (bytes + cal.mtu - 1) / cal.mtu;
        co_await pl.device_.postTx(qid_, d);
    }
    // One doorbell MMIO covers the whole burst — the batching win over
    // the kernel fast path's per-packet post.
    co_await delay(pl.sim_, cal.mmioCpuCost);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    txFrames_.add(static_cast<std::uint64_t>(count));
    txBytes_.add(static_cast<std::uint64_t>(count) * bytes);
    if (pl.obTxBurst_ != nullptr)
        pl.obTxBurst_->record(count);
    if (auto* tr = obs::tracer(pl.sim_, obs::kCatQueue)) {
        tr->complete(obs::kCatQueue, "poll_tx", pl.tracePid_, qid_, t0,
                     pl.sim_.now(), {{"frames", count}});
    }
    co_return count;
}

Task<>
PollPort::txMessage(const nic::FiveTuple& flow, std::uint32_t bytes,
                    int skb_node, DataLoc loc, bool last_of_message,
                    sim::Semaphore* completion_sem)
{
    PollPlane& pl = plane_;
    const auto& cal = pl.machine_.cal();

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    co_await delay(pl.sim_, cal.bypassTxPerFrame);
    nic::TxDesc d;
    d.flow = flow;
    d.bytes = bytes;
    d.skbNode = skb_node;
    d.loc = loc;
    d.fastPath = true;
    d.completionSem = completion_sem;
    d.sentAt = pl.sim_.now();
    d.lastOfMessage = last_of_message;
    std::uint64_t& seq = txSeq_[flow];
    d.seqStart = seq;
    seq += (bytes + cal.mtu - 1) / cal.mtu;
    co_await pl.device_.postTx(qid_, d);
    co_await delay(pl.sim_, cal.mmioCpuCost);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();

    txFrames_.add();
    txBytes_.add(bytes);
    if (pl.obTxBurst_ != nullptr)
        pl.obTxBurst_->record(1);
}

Task<int>
PollPort::harvestTx(int max)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    const auto& cal = pl.machine_.cal();
    max = std::clamp(max, 1, pl.cfg_.burst);

    const Tick t0 = pl.sim_.now();
    co_await core_.mutex().acquire();
    int n = 0;
    while (n < max) {
        auto oc = q.txCq.tryPop();
        if (!oc)
            break;
        co_await pl.cqeRead(q, oc->cqeLoc, q.bufNode, core_);
        co_await delay(pl.sim_, cal.bypassTxCompletion);
        if (oc->desc.completionSem != nullptr)
            oc->desc.completionSem->release();
        ++n;
    }
    if (n == 0)
        co_await delay(pl.sim_, cal.bypassEmptyPoll);
    core_.addBusy(pl.sim_.now() - t0);
    core_.mutex().release();
    txReaped_ += n;
    co_return n;
}

void
PollPort::freePacket(const RxPacket& p)
{
    PollPlane& pl = plane_;
    nic::NicQueue& q = pl.device_.queue(qid_);
    pl.pool_.free(p.node);
    // Pay down ring refills that failed while the pool was dry.
    while (pendingRefill_ > 0 && pl.pool_.tryAlloc(q.bufNode)) {
        q.rxCredits.release(1);
        --pendingRefill_;
    }
}

// ------------------------------------------------------------ PollPlane

PollPlane::PollPlane(topo::Machine& machine, nic::NicDevice& device,
                     BypassConfig cfg)
    : nic::QueuePlane(machine, device), cfg_(cfg),
      pool_(machine.sim(), device.name() + ".pool"),
      flows_(obs::hub(machine.sim()), device.name() + ".poll")
{
    device_.setSink(this);
    if (obs::Hub* h = obs::hub(sim_)) {
        obs::MetricRegistry& reg = h->metrics();
        const obs::Labels l = {{"dev", device_.name()}};
        reg.counterFn("bypass_lost_bytes", l,
                      [this] { return lostBytes_; });
        reg.counterFn("bypass_resteers", l,
                      [this] { return resteersPerformed(); });
        reg.counterFn("bypass_admin_drains", l,
                      [this] { return adminDrains(); });
        obRxBurst_ = &reg.histogram("bypass_rx_burst_frames", l);
        obTxBurst_ = &reg.histogram("bypass_tx_burst_frames", l);
        obOccupancy_ = &reg.histogram("bypass_poll_occupancy_pct", l);
        obE2e_ = &reg.histogram("latency_e2e_ns", l);
        tracePid_ = h->pidFor(device_.name() + ".bypass");
        h->tracer().threadName(tracePid_, kE2eTid, "e2e");
    }
}

PollPlane::~PollPlane() = default;

PollPort&
PollPlane::addPort(topo::Core& core, int qid)
{
    assert(queuePort_.find(qid) == queuePort_.end());
    device_.setQueuePolled(qid);
    nic::NicQueue& q = device_.queue(qid);

    // Carve this port's arena: the ring's initial fill plus headroom
    // for buffers the application holds, then commit the ring fill.
    const auto ring = static_cast<std::uint64_t>(q.rxCredits.count());
    pool_.addCapacity(q.bufNode,
                      ring + static_cast<std::uint64_t>(
                                 cfg_.extraBufsPerPort));
    for (std::uint64_t i = 0; i < ring; ++i) {
        const bool ok = pool_.tryAlloc(q.bufNode);
        assert(ok);
        (void)ok;
    }

    const int idx = static_cast<int>(ports_.size());
    ports_.push_back(
        std::unique_ptr<PollPort>(new PollPort(*this, core, qid)));
    queuePort_[qid] = idx;
    if (obs::Hub* h = obs::hub(sim_)) {
        const obs::Labels l = {{"dev", device_.name()},
                               {"queue", std::to_string(qid)}};
        PollPort* p = ports_.back().get();
        h->metrics().counterFn("bypass_rx_frames", l,
                               [p] { return p->rxFrames_.total(); });
        h->metrics().counterFn("bypass_tx_frames", l,
                               [p] { return p->txFrames_.total(); });
        h->metrics().counterFn("bypass_empty_polls", l,
                               [p] { return p->emptyPolls_; });
        h->tracer().threadName(tracePid_, qid,
                               "q" + std::to_string(qid));
    }
    return *ports_.back();
}

PollPort*
PollPlane::portForQueue(int qid)
{
    const auto it = queuePort_.find(qid);
    return it == queuePort_.end() ? nullptr : ports_.at(it->second).get();
}

void
PollPlane::steerFlow(const nic::FiveTuple& flow, int port_idx)
{
    device_.steerFlow(flow, ports_.at(port_idx)->qid());
}

bool
PollPlane::placeFlow(const nic::FiveTuple& flow, int qid)
{
    if (qid < 0 || qid >= device_.queueCount())
        return false;
    if (portForQueue(qid) == nullptr)
        return false; // nobody polls that queue — frames would rot
    if (device_.classify(flow) == qid)
        return true;
    device_.steerFlow(flow, qid);
    return true;
}

std::uint64_t
PollPlane::rxBytesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->rxBytes_.total();
    return s;
}

std::uint64_t
PollPlane::txBytesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->txBytes_.total();
    return s;
}

std::uint64_t
PollPlane::rxFramesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->rxFrames_.total();
    return s;
}

std::uint64_t
PollPlane::txFramesTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->txFrames_.total();
    return s;
}

std::uint64_t
PollPlane::emptyPollsTotal() const
{
    std::uint64_t s = 0;
    for (const auto& p : ports_)
        s += p->emptyPolls_;
    return s;
}

void
PollPlane::frameLost(const nic::FiveTuple& flow, std::uint32_t bytes)
{
    (void)flow;
    lostBytes_ += bytes;
}

} // namespace octo::bypass
