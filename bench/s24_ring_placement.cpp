/**
 * @file
 * §2.4 ablation: "remote DDIO will not solve NUDMA". The paper
 * validates that placing the response ring local to the (remote) NIC —
 * so its completion writes allocate in the NIC-side LLC — yields only a
 * marginal (~2%) pktgen improvement, because the CPU must then read the
 * entries across the interconnect anyway.
 *
 * We reproduce by comparing remote pktgen with the completion ring on
 * the workload's node (default) vs on the NIC's node.
 */
#include "common.hpp"
#include "workloads/pktgen.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

double
runPktgenRing(bool ring_on_nic_node, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Remote;
    obsBegin(obs, cfg,
             ring_on_nic_node ? "ring-nic-node" : "ring-app-node");
    Testbed tb(cfg);
    auto t = tb.serverThread(tb.workNode(), 0);

    if (ring_on_nic_node) {
        // Re-home the workload queue's ring/buffer memory onto the
        // NIC's node: completion DMA-writes become NIC-local (DDIO
        // allocates them in node 0's LLC), but the CPU on node 1 then
        // reads them across the interconnect.
        const int qid =
            tb.serverStack(0).queueForCore(t.core().id());
        tb.serverNic().queue(qid).bufNode = Testbed::kNicNode;
    }

    workloads::Pktgen gen(tb, t, 64);
    gen.start();
    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(kWarmup);
    const std::uint64_t p0 = gen.packetsSent();
    tb.runFor(kWindow);
    const double mpps =
        (gen.packetsSent() - p0) / sim::toSec(kWindow) / 1e6;
    if (obs != nullptr)
        obs->endRun();
    return mpps;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "s24");

    printHeader("§2.4 ablation — response-ring placement for remote "
                "pktgen",
                "ring placement        MPPS");
    const double app_local = runPktgenRing(false, &obs);
    const double nic_local = runPktgenRing(true, &obs);
    std::printf("%-20s %7.2f\n", "app node (default)", app_local);
    std::printf("%-20s %7.2f\n", "NIC node (remote-DDIO)", nic_local);
    std::printf("improvement: %.1f%% (paper: <= ~2%%)\n",
                (nic_local / app_local - 1.0) * 100.0);
    obs.finish();
    return 0;
}
