/**
 * @file
 * PF failover timeline: a TCP Rx netperf stream served through the
 * octoNIC's node-1 endpoint while a FaultPlan surprise-removes that PF
 * mid-run and re-probes it later. Per-PF throughput is sampled
 * throughout, mirroring the Fig. 14 migration-timeline shape — except
 * here the *device*, not the thread, forces the traffic to switch PFs.
 *
 * Expected shape: traffic runs on PF1 (the ring's home endpoint) until
 * the kill, collapses for roughly the failover-detection delay plus the
 * retry timeout, then resumes through PF0 at a NUDMA-degraded-but-close
 * rate; on recovery the team driver rebalances the rings home and PF1
 * carries the stream again at the pre-fault rate.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

void
runFailoverTimeline(ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.pfKill(sim::fromMs(300), 1).pfRecover(sim::fromMs(600), 1);
    obsBegin(obs, cfg, "failover");
    Testbed tb(cfg);

    // The workload runs on node 1, so steering parks its ring behind
    // PF1 — the endpoint the plan kills.
    auto server_t = tb.serverThread(1, 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 64u << 10,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    obs::Hub own;
    obs::Report timeline;
    obs::Sampler series(tb.sim(), timelineHub(obs, own, "failover"),
                        timeline, sim::fromMs(10));
    series.watchRate("pf0", [&] { return tb.serverNic().pfRxBytes(0); });
    series.watchRate("pf1", [&] { return tb.serverNic().pfRxBytes(1); });
    series.watchRate("app", [&] { return stream.bytesDelivered(); });
    series.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(sim::fromMs(1000));

    std::printf("\n# octoNIC: PF1 surprise-removed at 0.30 s, "
                "re-probed at 0.60 s; 10 ms samples\n");
    const obs::RunData& run = timeline.runs().front();
    std::printf("%-8s", "t[s]");
    for (const obs::SeriesData& s : run.series)
        std::printf(" %8s", s.name.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
        const double t_ms = run.timesMs[i];
        const bool near_fault =
            (t_ms >= 280 && t_ms <= 360) || (t_ms >= 580 && t_ms <= 660);
        if (static_cast<int>(t_ms) % 50 != 0 && !near_fault)
            continue;
        std::printf("%-8.2f", t_ms / 1000.0);
        for (const obs::SeriesData& s : run.series)
            std::printf(" %8.2f", s.values[i]);
        std::printf("\n");
    }

    const auto& nic = tb.serverNic();
    const auto& stack = tb.serverStack();
    std::printf("# failovers=%llu rebalances=%llu dead-pf drops=%llu "
                "lost=%llu B reclaimed=%llu B\n",
                static_cast<unsigned long long>(stack.pfFailovers()),
                static_cast<unsigned long long>(stack.pfRebalances()),
                static_cast<unsigned long long>(nic.deadPfDrops()),
                static_cast<unsigned long long>(stack.lostBytes()),
                static_cast<unsigned long long>(
                    tb.clientStack().reclaimedBytes()));
    if (obs != nullptr)
        obs->endRun();
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fault_failover");

    printHeader("PF failover — fault injection on the octoNIC team",
                "(time series below)");
    runFailoverTimeline(&obs);
    obs.finish();
    return 0;
}
