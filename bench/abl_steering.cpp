/**
 * @file
 * Ablation: steering-update latency vs migration frequency. The
 * IOctoRFS update is applied by an asynchronous kernel worker after the
 * old queue drains (§4.2); a thread that migrates faster than updates
 * settle spends a growing fraction of its time being served by the
 * remote PF. This bounds how dynamic a workload IOctopus can absorb.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct SteeringResult
{
    double gbps;
    std::uint64_t ooo;
    std::uint64_t updates;
};

SteeringResult
runPingPong(sim::Tick period, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    obsBegin(obs, cfg,
             "pingpong/" + std::to_string(sim::toUs(period)) + "us");
    Testbed tb(cfg);
    auto server_t = tb.serverThread(0, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64 << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    // Ping-pong the consumer between sockets every `period`.
    auto bouncer = [&]() -> sim::Task<> {
        int node = 0;
        for (;;) {
            co_await sim::delay(tb.sim(), period);
            node = 1 - node;
            co_await stream.pair().serverCtx.migrate(
                tb.server().coreOn(node, 0));
        }
    };
    auto loop = sim::spawn(bouncer);
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kWarmup);
    const auto b0 = stream.bytesDelivered();
    const auto o0 = stream.serverSocket().oooEvents;
    tb.runFor(kWindow);
    SteeringResult res{
        sim::toGbps(stream.bytesDelivered() - b0, kWindow),
        stream.serverSocket().oooEvents - o0,
        tb.serverStack(0).steeringUpdates()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "abl_steering");

    printHeader("Ablation — migration frequency vs octoNIC steering",
                "migration period   tput[Gb/s]  ooo-events  "
                "steering-updates");
    for (double ms : {50.0, 10.0, 2.0, 0.5, 0.1}) {
        // Observability records one tame and one pathological period:
        // the per-PF rx tracks show the ping-pong directly.
        ObsSession* observed = ms == 10.0 || ms == 0.5 ? &obs : nullptr;
        const auto r = runPingPong(sim::fromMs(ms), observed);
        std::printf("%8.1f ms %16.2f %11llu %17llu\n", ms, r.gbps,
                    static_cast<unsigned long long>(r.ooo),
                    static_cast<unsigned long long>(r.updates));
    }
    std::printf("\nShape check: throughput stays at local level across "
                "realistic migration rates\nwith zero-to-few reordering "
                "events (the drain discipline at work). At\npathological "
                "sub-millisecond ping-pong the flow increasingly runs "
                "ahead of its\nsteering rule — softirq work spreads over "
                "two cores (raising throughput) at\nthe price of "
                "growing reordering, exactly the trade IOctoRFS "
                "exists to avoid.\n");
    obs.finish();
    return 0;
}
