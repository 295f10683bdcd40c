/**
 * @file
 * Figure 14: IOctopus steering switch under thread migration. A TCP Rx
 * netperf process migrates to the other socket mid-run
 * (sched_setaffinity); per-PF throughput is sampled throughout.
 *
 * Paper shape: with the octoNIC, traffic moves smoothly from PF0 to
 * PF1 shortly after migration (no lost or out-of-order packets); with
 * standard firmware the flow stays on the original PF and throughput
 * drops from local-level to remote-level.
 *
 * Timescale: the paper migrates at ~4.5 s into a 10 s run sampled every
 * 50 ms; the simulation compresses this 10:1 (migrate at 0.45 s of a
 * 1 s run, 10 ms samples), which preserves the transition shape —
 * steering updates settle in tens of microseconds, far below either
 * sampling period.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

void
runMigration(ServerMode mode, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg, core::modeName(mode));
    Testbed tb(cfg);
    // Start on the NIC-local socket; migrate to the other one.
    auto server_t = tb.serverThread(0, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    // The per-PF rx counter tracks show the steering switch directly.
    if (obs != nullptr)
        obs->startSampler(tb);

    const sim::Tick sample = sim::fromMs(10);
    const int total_samples = 100;
    const int migrate_at = 45;

    std::printf("\n# %s firmware: per-PF Rx throughput [Gb/s], %d ms "
                "samples (x10 = paper seconds)\n",
                mode == ServerMode::Ioctopus ? "octoNIC" : "ethNIC",
                10);
    std::printf("%-8s %8s %8s\n", "t[s]", "pf0", "pf1");

    std::uint64_t pf0_prev = tb.serverNic().pfRxBytes(0);
    std::uint64_t pf1_prev = tb.serverNic().pfRxBytes(1);
    // sched_setaffinity the *running* workload thread context.
    sim::Task<> migration = [](Testbed& tbed, os::ThreadCtx& t,
                               int when_ms) -> sim::Task<> {
        co_await sim::delay(tbed.sim(),
                            sim::fromMs(when_ms) - tbed.sim().now());
        co_await t.migrate(tbed.server().coreOn(1, 0));
    }(tb, stream.pair().serverCtx, migrate_at * 10);

    for (int i = 1; i <= total_samples; ++i) {
        tb.runFor(sample);
        const std::uint64_t pf0 = tb.serverNic().pfRxBytes(0);
        const std::uint64_t pf1 = tb.serverNic().pfRxBytes(1);
        if (i % 5 == 0 || (i >= migrate_at - 2 && i <= migrate_at + 5)) {
            std::printf("%-8.2f %8.2f %8.2f\n", i * 0.1,
                        sim::toGbps(pf0 - pf0_prev, sample),
                        sim::toGbps(pf1 - pf1_prev, sample));
        }
        pf0_prev = pf0;
        pf1_prev = pf1;
    }
    std::printf("# out-of-order events during run: %llu (startup "
                "steering transition included)\n",
                static_cast<unsigned long long>(
                    stream.serverSocket().oooEvents));
    if (obs != nullptr)
        obs->endRun();
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig14");

    printHeader("Fig. 14 — thread migration and the steering switch",
                "(time series below)");
    runMigration(ServerMode::Ioctopus, &obs);
    runMigration(ServerMode::Local, &obs); // standard fw, starts local
    obs.finish();
    return 0;
}
