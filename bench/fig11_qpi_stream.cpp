/**
 * @file
 * Figure 11: single-core TCP Rx throughput co-located with an
 * increasing number of STREAM pairs loading the interconnect.
 *
 * Each pair is two threads targeting memory remote to their CPU, one
 * reading and one writing (paper §5.2), placed on the otherwise-idle
 * cores. Paper shape: both configurations degrade as STREAM activity
 * grows, but ioct/local stays 1.82-2.67x ahead of remote.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

/** TCP Rx throughput in Gb/s next to @p stream_pairs STREAM pairs. */
double
runColoc(ServerMode mode, int stream_pairs, ObsSession* obs)
{
    TestbedConfig cfg = modeConfig(mode);
    obsBegin(obs, cfg,
             std::string(core::modeName(mode)) + "/" +
                 std::to_string(stream_pairs) + "pairs");
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    const auto ants = startStreamPairs(tb, stream_pairs);

    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(kWarmup);
    Probe probe(tb, {&server_t.core()}, stream.bytesDelivered());
    tb.runFor(kWindow);
    const double gbps = probe.gbps(stream.bytesDelivered());
    if (obs != nullptr)
        obs->endRun();
    return gbps;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig11");

    printHeader("Fig. 11 — TCP Rx + STREAM interconnect congestion",
                "pairs  ioct[Gb/s]  remote[Gb/s]  ioct/remote");
    for (int pairs = 1; pairs <= 6; ++pairs) {
        // Observability records the heaviest congestion point, both
        // presets: the qpi_gbps counter track shows the antagonist
        // load directly.
        ObsSession* observed = pairs == 6 ? &obs : nullptr;
        const double o = runColoc(ServerMode::Ioctopus, pairs, observed);
        const double r = runColoc(ServerMode::Remote, pairs, observed);
        std::printf("%-6d %10.2f %13.2f %12.2f\n", pairs, o, r, o / r);
    }
    obs.finish();
    return 0;
}
