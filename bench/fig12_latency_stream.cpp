/**
 * @file
 * Figure 12: 64-byte UDP message latency (sockperf-style ping-pong)
 * co-located with STREAM pairs congesting the interconnect.
 *
 * Paper shape: ioct/local latency is flat as STREAM load grows (its
 * DMAs never cross the interconnect); remote latency grows with
 * congestion and sits 10-22% above ioct/local.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

double
runLatency(ServerMode mode, int stream_pairs, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.rxCoalesce = 0;
    obsBegin(obs, cfg,
             std::string(core::modeName(mode)) + "/" +
                 std::to_string(stream_pairs) + "pairs");
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    // sockperf: UDP-like single-frame messages, no TSO.
    workloads::RrWorkload rr(tb, server_t, client_t, 64, /*tso=*/false);
    rr.start();

    const auto ants = startStreamPairs(tb, stream_pairs);

    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(sim::fromMs(2));
    rr.resetStats();
    tb.runFor(sim::fromMs(30));
    const double mean = rr.latencyUs().mean();
    if (obs != nullptr)
        obs->endRun();
    return mean;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig12");

    printHeader("Fig. 12 — 64B message latency + STREAM congestion",
                "pairs  ioct[us]  remote[us]  ioct/remote");
    for (int pairs = 1; pairs <= 6; ++pairs) {
        // Observability records the heaviest congestion point, both
        // presets.
        ObsSession* observed = pairs == 6 ? &obs : nullptr;
        const double o = runLatency(ServerMode::Ioctopus, pairs, observed);
        const double r = runLatency(ServerMode::Remote, pairs, observed);
        std::printf("%-6d %9.2f %10.2f %12.2f\n", pairs, o, r, o / r);
    }
    obs.finish();
    return 0;
}
