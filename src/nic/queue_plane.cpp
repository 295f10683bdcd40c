#include "nic/queue_plane.hpp"

#include <algorithm>

#include "obs/hub.hpp"

namespace octo::nic {

using mem::DataLoc;
using sim::delay;
using sim::fromUs;

QueuePlane::QueuePlane(topo::Machine& machine, NicDevice& device)
    : machine_(machine), device_(device), sim_(machine.sim())
{
}

steer::EndpointTelemetry
QueuePlane::telemetry(const steer::Endpoint& ep) const
{
    steer::EndpointTelemetry t;
    NicDevice& dev = device_;
    if (ep.isPf()) {
        const pcie::PciFunction& pf = dev.function(ep.pf);
        t.linkUp = pf.linkUp();
        t.bwFraction = pf.bwFraction();
        t.nominalGbps = pf.nominalGbps();
        t.errors = pf.correctableErrors() + pf.uncorrectableErrors() +
                   dev.pfDeadDrops(ep.pf) + dev.pfTxAborts(ep.pf);
        // Queue stalls are judged at queue granularity — folding them
        // into the PF verdict would tar every healthy sibling.
        t.stalls = 0;
        t.currentPf = ep.pf;
        t.homePf = ep.pf;
        t.node = pf.node();
        return t;
    }
    const NicQueue& q = dev.queue(ep.queue);
    t.linkUp = q.pf->linkUp();
    t.impaired = q.stalledUntil > sim_.now() ||
                 q.poisonedUntil > sim_.now();
    t.bwFraction = t.impaired ? 0.0 : 1.0;
    t.nominalGbps = q.pf->nominalGbps();
    t.errors = q.poisonEvents;
    t.stalls = q.stallEvents;
    t.currentPf = q.pf->id();
    t.homePf = q.homePf->id();
    t.node = q.irqCore->node();
    return t;
}

void
QueuePlane::resteer(const steer::Endpoint& ep, int target_pf)
{
    if (ep.isQueue()) {
        resteerQueue(ep.queue, target_pf);
        return;
    }
    for (int qid = 0; qid < device_.queueCount(); ++qid) {
        if (device_.queue(qid).pf->id() == ep.pf)
            resteerQueue(qid, target_pf);
    }
}

void
QueuePlane::drain(const steer::Endpoint& ep)
{
    if (ep.isQueue()) {
        ++adminDrains_;
        adminDrainTask(ep.queue).detach();
        return;
    }
    for (int qid = 0; qid < device_.queueCount(); ++qid) {
        if (device_.queue(qid).pf->id() == ep.pf) {
            ++adminDrains_;
            adminDrainTask(qid).detach();
        }
    }
}

void
QueuePlane::resteerQueue(int qid, int pf_idx)
{
    const std::uint64_t epoch = ++resteerEpoch_[qid];
    drainAndRebind(qid, pf_idx, epoch).detach();
}

sim::Task<>
QueuePlane::adminDrainTask(int qid)
{
    co_await drainQueue(qid);
}

sim::Task<bool>
QueuePlane::drainQueue(int qid)
{
    // Evacuation discipline: let the completions already posted behind
    // the old binding be reaped (by the softirq or the application's
    // own poll loop) so no flow observes reordering across the rebind.
    // A stalled or unpolled queue would block this forever — the
    // watchdog converts "wedged driver" into "bounded reordering risk".
    NicQueue& q = device_.queue(qid);
    const std::uint64_t target = q.rxReaped + q.rxCq.size();
    const Tick deadline = sim_.now() + kDrainWatchdog;
    while (q.rxReaped < target) {
        if (sim_.now() >= deadline) {
            ++watchdogFires_;
            co_return false;
        }
        co_await delay(sim_, fromUs(5));
    }
    co_return true;
}

sim::Task<>
QueuePlane::drainAndRebind(int qid, int pf_idx, std::uint64_t epoch)
{
    // Firmware RPC reprogramming the queue context (same kernel-worker
    // latency as a steering-table update); the consumer keeps reaping
    // the same rings throughout — only the DMA path moves.
    co_await delay(sim_, machine_.cal().arfsUpdateDelay);
    if (resteerEpoch_[qid] != epoch)
        co_return; // superseded by a newer verdict
    co_await drainQueue(qid);
    if (resteerEpoch_[qid] != epoch)
        co_return;
    pcie::PciFunction* pf = &device_.function(pf_idx);
    if (device_.queue(qid).pf == pf)
        co_return;
    const int old_pf = device_.queue(qid).pf->id();
    device_.rebindQueue(qid, *pf);
    ++resteers_;
    if (auto* tr = obs::tracer(sim_, obs::kCatSteer)) {
        tr->instant(obs::kCatSteer, "health_resteer", tracePid_, qid,
                    sim_.now(),
                    {{"qid", qid}, {"from_pf", old_pf},
                     {"to_pf", pf_idx}});
    }
}

sim::Task<bool>
QueuePlane::probe(int pf_idx)
{
    // Pick a queue currently bound to the PF under probation; the
    // probe rides the normal Tx path (descriptor fetch, wire, CQE
    // write-back, reap) but belongs to no flow, so no real traffic is
    // steered onto the endpoint until the probe passes.
    int qid = -1;
    for (int q = 0; q < device_.queueCount(); ++q) {
        if (device_.queue(q).pf->id() == pf_idx) {
            qid = q;
            break;
        }
    }
    if (qid < 0 || !device_.function(pf_idx).linkUp())
        co_return false;
    const std::uint64_t aborts0 = device_.pfTxAborts(pf_idx);
    sim::Semaphore done(sim_, 0);
    NicQueue& q = device_.queue(qid);
    TxDesc d;
    d.flow.srcPort = 1; // unmatched control flow: both ends discard it
    d.flow.dstPort = 1;
    d.bytes = 64;
    d.skbNode = q.bufNode;
    d.loc = DataLoc::Llc;
    d.fastPath = true;
    d.probe = true;
    d.completionSem = &done;
    d.sentAt = sim_.now();
    co_await device_.postTx(qid, d);
    const Tick deadline = sim_.now() + kDrainWatchdog;
    while (!done.tryAcquire()) {
        if (sim_.now() >= deadline)
            co_return false;
        if (q.polled) {
            // No Tx interrupt on a polled queue: harvest completions
            // (including ours) here so the probe resolves even on an
            // otherwise idle port.
            while (auto oc = q.txCq.tryPop()) {
                if (oc->desc.completionSem != nullptr)
                    oc->desc.completionSem->release();
            }
        }
        co_await delay(sim_, fromUs(5));
    }
    co_return device_.pfTxAborts(pf_idx) == aborts0 &&
        device_.function(pf_idx).linkUp();
}

void
QueuePlane::unplaceFlow(const FiveTuple& flow)
{
    device_.unsteerFlow(flow);
}

bool
QueuePlane::queueDmaLocal(int qid) const
{
    const NicQueue& q = device_.queue(qid);
    return q.pf->linkUp() && q.pf->node() == q.bufNode;
}

sim::Task<>
QueuePlane::cqeRead(const NicQueue& q, DataLoc cqe_loc, int buf_node,
                    const topo::Core& reader)
{
    const auto& cal = machine_.cal();
    if (cqe_loc == DataLoc::Llc && buf_node == reader.node()) {
        co_await delay(sim_, cal.llcLatency);
    } else if (cqe_loc == DataLoc::Llc) {
        // Ring homed on the device's node (§2.4 remote-DDIO ablation):
        // the entry is forwarded cache-to-cache across the interconnect
        // — marginally cheaper than a local DRAM miss.
        co_await delay(sim_, cal.qpiLatency + cal.llcLatency +
                                 cal.rxRemoteDescMiss);
    } else {
        // The line was just posted by the remote device; the read
        // serializes behind the device's in-flight writes on the
        // interconnect, so under congestion (Fig. 11) the wait grows
        // with the load — bounded by the home agent's read-queue cap.
        // Same-node only with DDIO off: a plain local DRAM miss, no
        // interconnect crossing to serialize behind.
        const Tick backlog =
            q.pf->node() == reader.node()
                ? 0
                : std::min(machine_.qpi(q.pf->node(), reader.node())
                               .backlog(),
                           cal.remoteMissWaitCap);
        machine_.dram(buf_node).reserve(64ull * cal.cqeLines);
        co_await delay(sim_, cal.dramLatency + cal.qpiLatency + backlog +
                                 cal.rxRemoteDescMiss);
    }
}

} // namespace octo::nic
