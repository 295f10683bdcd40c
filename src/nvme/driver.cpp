#include "nvme/driver.hpp"

#include "sim/simulator.hpp"
#include "steer/steering.hpp"

namespace octo::nvme {

using sim::Task;
using sim::Tick;
using steer::Endpoint;
using steer::EndpointTelemetry;

namespace {

/** Flow label of submission queue @p id's attribution row. */
std::string
sqLabel(int id)
{
    return "sq" + std::to_string(id);
}

} // namespace

NvmeDriver::NvmeDriver(NvmeDevice& dev)
    : dev_(dev), flows_(obs::hub(dev.host().sim()), dev.name())
{
    if (obs::Hub* h = obs::hub(dev_.host().sim())) {
        tracePid_ = h->pidFor(dev_.name());
        obE2e_ = &h->metrics().histogram("latency_e2e_ns",
                                         {{"dev", dev_.name()}});
    }
}

int
NvmeDriver::addSq(int node)
{
    NvmeSq sq;
    sq.id = static_cast<int>(sqs_.size());
    sq.node = node;
    sq.homePf = dev_.portFor(node).id();
    sq.pf = sq.homePf;
    sqs_.push_back(sq);
    if (obs::Hub* h = obs::hub(dev_.host().sim())) {
        const int id = sq.id;
        const obs::Labels l = {{"dev", dev_.name()},
                               {"sq", std::to_string(id)}};
        h->metrics().counterFn("nvme_sq_ios", l,
                               [this, id] { return sqs_[id].ios; });
        h->metrics().counterFn("nvme_sq_bytes", l,
                               [this, id] { return sqs_[id].bytes; });
        h->metrics().gaugeFn("nvme_sq_inflight", l, [this, id] {
            return static_cast<double>(sqs_[id].inflight);
        });
        h->tracer().threadName(tracePid_, id,
                               "sq" + std::to_string(id));
    }
    return sq.id;
}

int
NvmeDriver::sqForNode(int node) const
{
    for (const NvmeSq& sq : sqs_) {
        if (sq.node == node)
            return sq.id;
    }
    return 0;
}

Task<Tick>
NvmeDriver::read(std::uint64_t bytes, int buf_node, int submit_node)
{
    sim::Simulator& sim = dev_.host().sim();
    NvmeSq& sq = sqs_.at(sqForNode(submit_node));
    // A stuck doorbell blocks the submission itself: the write to the
    // SQ tail register is simply not accepted until the fault clears.
    if (sq.doorbellStuckUntil > sim.now())
        co_await sim::delay(sim, sq.doorbellStuckUntil - sim.now());
    // The port is latched at submission: a re-steer mid-IO moves only
    // subsequent submissions, mirroring the NIC's drain-then-rebind.
    // Under weighted steering the choice is per-IO: the node's IOs
    // stripe across both ports in proportion to their health weights —
    // a degraded-but-alive local port keeps its share instead of being
    // abandoned wholesale, exactly like the NIC plane's queue spread.
    const int port_idx =
        weightedSteering_ && !pfWeights_.empty() ? stripePort(sq)
                                                 : sq.pf;
    pcie::PciFunction& pf = dev_.port(port_idx);
    ++sq.inflight;
    if (sq.portIos.size() <
        static_cast<std::size_t>(dev_.portCount()))
        sq.portIos.resize(static_cast<std::size_t>(dev_.portCount()));
    ++sq.portIos[static_cast<std::size_t>(port_idx)];
    ++sq.ios;
    const Tick start = sim.now();
    const Tick lat = co_await dev_.readVia(pf, bytes, buf_node, sq.node);
    // A wedged CQ holds the completion: the IO is done on media and its
    // DMA has landed, but the caller observes it only after the CQ
    // resumes posting.
    if (sq.cqStallUntil > sim.now())
        co_await sim::delay(sim, sq.cqStallUntil - sim.now());
    sq.bytes += bytes;
    --sq.inflight;
    ++sq.done;
    if (obE2e_ != nullptr)
        obE2e_->record(sim::toNs(dev_.host().sim().now() - start));
    if (flows_.active()) {
        // Payload lands on the buffer's node, the 64B completion entry
        // on the submitter's; attribute both to the SQ's row. DDIO
        // outcome reuses the same deterministic placement function the
        // port applied inside dmaWrite.
        topo::Machine& host = dev_.host();
        const auto key = static_cast<std::uint64_t>(sq.id);
        flows_.record<sqLabel>(
            key, sq.id, bytes, pf.node() == buf_node,
            host.llc(buf_node).dmaWriteLocation(pf.node(), buf_node) ==
                mem::DataLoc::Llc);
        flows_.record<sqLabel>(
            key, sq.id, 64, pf.node() == sq.node,
            host.llc(sq.node).dmaWriteLocation(pf.node(), sq.node) ==
                mem::DataLoc::Llc);
    }
    if (auto* tr = obs::tracer(dev_.host().sim(), obs::kCatQueue)) {
        tr->complete(obs::kCatQueue, "nvme_read", tracePid_, sq.id,
                     start, dev_.host().sim().now(),
                     {{"bytes", bytes},
                      {"buf_node", buf_node},
                      {"port", port_idx}});
    }
    co_return lat;
}

int
NvmeDriver::stripePort(const NvmeSq& sq) const
{
    // Anchor on the home (node-local) port; the strongest-weighted
    // other port takes the spillover. keepSlot over a fixed slot ring
    // (indexed by the SQ's submission count) converges the long-run
    // split to keepLocalShare's ratio without any per-IO randomness.
    constexpr int kStripeSlots = 16;
    const auto local = static_cast<std::size_t>(sq.homePf);
    if (local >= pfWeights_.size())
        return sq.pf;
    int alt = -1;
    for (std::size_t o = 0; o < pfWeights_.size(); ++o) {
        if (o == local || pfWeights_[o] <= 0)
            continue;
        if (alt < 0 || pfWeights_[o] > pfWeights_[alt])
            alt = static_cast<int>(o);
    }
    const double wl = pfWeights_[local];
    if (alt < 0)
        return wl > 0 ? static_cast<int>(local) : sq.pf;
    if (wl <= 0)
        return alt;
    const double share = steer::keepLocalShare(wl, pfWeights_[alt]);
    const int slot = static_cast<int>(sq.ios %
                                      static_cast<std::uint64_t>(
                                          kStripeSlots));
    return steer::keepSlot(slot, kStripeSlots, share)
               ? static_cast<int>(local)
               : alt;
}

void
NvmeDriver::stallDoorbell(int sq, Tick duration)
{
    NvmeSq& q = sqs_.at(sq);
    q.doorbellStuckUntil = dev_.host().sim().now() + duration;
    ++q.stallEvents;
}

void
NvmeDriver::stallCq(int sq, Tick duration)
{
    NvmeSq& q = sqs_.at(sq);
    q.cqStallUntil = dev_.host().sim().now() + duration;
    ++q.stallEvents;
}

EndpointTelemetry
NvmeDriver::telemetry(const Endpoint& ep) const
{
    EndpointTelemetry t;
    NvmeDevice& dev = dev_;
    if (ep.isPf()) {
        const pcie::PciFunction& pf = dev.port(ep.pf);
        t.linkUp = pf.linkUp();
        t.bwFraction = pf.bwFraction();
        t.nominalGbps = pf.nominalGbps();
        t.errors = pf.correctableErrors() + pf.uncorrectableErrors();
        t.currentPf = ep.pf;
        t.homePf = ep.pf;
        t.node = pf.node();
        return t;
    }
    const NvmeSq& sq = sqs_.at(ep.queue);
    const pcie::PciFunction& pf = dev.port(sq.pf);
    const Tick now = dev.host().sim().now();
    t.linkUp = pf.linkUp();
    // The SQ's effective bandwidth is whatever the port it is bound to
    // can train to — unless the SQ itself is wedged (stuck doorbell or
    // stalled CQ), in which case it moves nothing regardless of the
    // port, mirroring a stalled NIC queue.
    t.impaired = sq.doorbellStuckUntil > now || sq.cqStallUntil > now;
    t.bwFraction = t.impaired ? 0.0 : pf.bwFraction();
    t.nominalGbps = pf.nominalGbps();
    t.stalls = sq.stallEvents;
    t.currentPf = sq.pf;
    t.homePf = sq.homePf;
    t.node = sq.node;
    return t;
}

void
NvmeDriver::resteer(const Endpoint& ep, int target_pf)
{
    if (ep.isQueue()) {
        NvmeSq& sq = sqs_.at(ep.queue);
        if (sq.pf == target_pf)
            return;
        sq.pf = target_pf;
        ++resteers_;
        return;
    }
    for (NvmeSq& sq : sqs_) {
        if (sq.pf == ep.pf && sq.pf != target_pf) {
            sq.pf = target_pf;
            ++resteers_;
        }
    }
}

void
NvmeDriver::drain(const Endpoint& ep)
{
    if (ep.isQueue()) {
        ++adminDrains_;
        drains_.push_back(drainTask(ep.queue));
        return;
    }
    for (const NvmeSq& sq : sqs_) {
        if (sq.pf == ep.pf) {
            ++adminDrains_;
            drains_.push_back(drainTask(sq.id));
        }
    }
}

Task<>
NvmeDriver::drainTask(int sq_id)
{
    sim::Simulator& sim = dev_.host().sim();
    const Tick deadline = sim.now() + kDrainWatchdog;
    while (sqs_.at(sq_id).inflight > 0) {
        if (sim.now() >= deadline) {
            ++watchdogFires_;
            co_return;
        }
        co_await sim::delay(sim, sim::fromUs(5));
    }
}

} // namespace octo::nvme
