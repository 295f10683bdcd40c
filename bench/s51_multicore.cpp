/**
 * @file
 * §5.1 multi-core throughput (text result): a netperf instance on
 * every server core.
 *
 * With standard firmware the bifurcated NIC appears as two netdevs,
 * one per socket (paper §5 "evaluated configurations"): *local* places
 * each instance on its netdev's socket, *remote* crosses them so every
 * DMA traverses the interconnect. *ioctopus* is the unified device.
 *
 * Paper shape: the network, not the CPU, is the bottleneck, so every
 * configuration sustains (near) line rate — but remote burns
 * interconnect bandwidth and extra memory bandwidth, and unlike the
 * single-core runs even ioct/local shows memory traffic because the
 * combined working set exceeds the LLC.
 */
#include <memory>

#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

enum class Placement
{
    Straight, ///< Threads on their netdev's socket (local).
    Crossed,  ///< Threads on the opposite socket (remote).
    Octo,     ///< Unified octoNIC.
};

const char*
placementName(Placement p)
{
    switch (p) {
      case Placement::Straight:
        return "local";
      case Placement::Crossed:
        return "remote";
      case Placement::Octo:
        return "ioctopus";
    }
    return "?";
}

struct MulticoreResult
{
    double gbps;
    double membwGbps;
    double qpiGbps;
    double cpuCores;
};

MulticoreResult
runMulticore(Placement placement, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = placement == Placement::Octo ? ServerMode::Ioctopus
                                            : ServerMode::TwoNics;
    obsBegin(obs, cfg, placementName(placement));
    Testbed tb(cfg);

    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    std::vector<topo::Core*> cores;
    const int per_node = tb.server().cal().coresPerNode;
    for (int node = 0; node < 2; ++node) {
        for (int i = 0; i < per_node; ++i) {
            // The socket binds to the netdev of the *creating* thread's
            // node (TwoNics); for the crossed placement the workload
            // thread then runs on the other socket — the §2.5
            // can't-follow-the-thread association.
            auto bind_t = tb.serverThread(node, i);
            auto client_t = tb.clientThread(i, node);
            streams.push_back(
                std::make_unique<workloads::NetperfStream>(
                    tb, bind_t, client_t, 64u << 10,
                    workloads::StreamDir::ServerRx));
            if (placement == Placement::Crossed) {
                streams.back()->pair().serverCtx =
                    tb.serverThread(1 - node, i);
            }
            streams.back()->start();
            cores.push_back(&streams.back()->pair().serverCtx.core());
        }
    }

    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(kWarmup);
    std::uint64_t b0 = 0;
    for (auto& s : streams)
        b0 += s->bytesDelivered();
    Probe probe(tb, cores, b0);
    tb.runFor(kWindow);
    std::uint64_t b1 = 0;
    for (auto& s : streams)
        b1 += s->bytesDelivered();
    MulticoreResult res{probe.gbps(b1), probe.membwGbps(),
                        probe.qpiGbps(), probe.cpuCores()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "s51");

    printHeader("§5.1 — multi-core TCP Rx (all 28 cores)",
                "config    tput[Gb/s]  membw[Gb/s]  qpi[Gb/s]  "
                "cpu[cores]");
    for (auto p :
         {Placement::Straight, Placement::Crossed, Placement::Octo}) {
        const auto r = runMulticore(p, &obs);
        std::printf("%-9s %10.2f %12.2f %10.2f %11.2f\n",
                    placementName(p), r.gbps, r.membwGbps, r.qpiGbps,
                    r.cpuCores);
    }
    obs.finish();
    return 0;
}
