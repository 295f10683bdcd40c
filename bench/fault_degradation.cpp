/**
 * @file
 * Graceful-degradation timeline: four TCP Rx streams served through the
 * octoNIC's node-0 endpoint while a FaultPlan retrains that PF from x8
 * down to x2 mid-run and restores it later. The HealthMonitor notices
 * the bandwidth collapse and re-steers ~3/4 of the node-0 rings behind
 * the healthy remote PF (weighted steering, accepting NUDMA), then
 * brings them home through Probation once the link retrains back.
 *
 * The run is repeated without the monitor — the PR1 team driver only
 * reacts to hot-unplug events, so a *degraded-but-alive* PF silently
 * throttles everything behind it — and the degraded-window throughput
 * of both runs is compared.
 *
 * Output: a Fig. 14-style printed timeline of per-PF Gb/s plus the
 * monitor's steering weights, and `fault_degradation.csv` with every
 * 10 ms sample of the monitored run in the report's long format
 * (run,series,unit,time_ms,value; CI runs this binary as a smoke test
 * and checks the CSV is non-empty).
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

constexpr int kStreams = 4;
constexpr sim::Tick kDegradeAt = sim::fromMs(300);
constexpr sim::Tick kRestoreAt = sim::fromMs(600);
constexpr sim::Tick kRunFor = sim::fromMs(1000);
constexpr sim::Tick kSample = sim::fromMs(10);

/** One timeline run; returns application bytes delivered inside the
 *  degraded window [degrade+10ms, restore). */
std::uint64_t
runTimeline(bool monitored, bool print, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults.pcieWidthDegrade(kDegradeAt, 0, 2)
        .pcieRestore(kRestoreAt, 0);
    const char* label = monitored ? "monitored" : "unmonitored";
    obsBegin(obs, cfg, label);
    // After obsBegin: the monitor is this run's comparison knob, not an
    // observability convenience, so the explicit setting must win.
    cfg.healthMonitor = monitored;
    Testbed tb(cfg);

    // The workload runs on node 0, so steering parks the rings behind
    // PF0 — the endpoint the plan retrains down to x2.
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    std::vector<os::ThreadCtx> sctx;
    std::vector<os::ThreadCtx> cctx;
    for (int i = 0; i < kStreams; ++i) {
        sctx.push_back(tb.serverThread(0, i));
        cctx.push_back(tb.clientThread(i));
    }
    for (int i = 0; i < kStreams; ++i) {
        streams.push_back(std::make_unique<workloads::NetperfStream>(
            tb, sctx[i], cctx[i], 64u << 10, workloads::StreamDir::ServerRx));
        streams.back()->start();
    }
    auto app_bytes = [&] {
        std::uint64_t total = 0;
        for (const auto& s : streams)
            total += s->bytesDelivered();
        return total;
    };

    obs::Hub own;
    obs::Report timeline;
    obs::Sampler series(tb.sim(), timelineHub(obs, own, label), timeline,
                        kSample);
    series.watchRate("pf0", [&] { return tb.serverNic().pfRxBytes(0); });
    series.watchRate("pf1", [&] { return tb.serverNic().pfRxBytes(1); });
    series.watchRate("app", app_bytes);
    series.start();
    // The sampled run shows the weight collapse and the probation
    // ramp directly as pfN_health_weight counter tracks.
    if (obs != nullptr)
        obs->startSampler(tb);

    // Step the run sample-by-sample so the monitor's (non-cumulative)
    // steering weights can be read after each step and added to the
    // run as value series. A gauge watch would read them too early:
    // where a sample and a monitor update share a tick, the sample's
    // event fires first.
    std::vector<double> w0;
    std::vector<double> w1;
    std::uint64_t degraded_bytes = 0;
    std::uint64_t mark = 0;
    for (sim::Tick t = 0; t < kRunFor; t += kSample) {
        tb.runFor(kSample);
        if (health::HealthMonitor* mon = tb.monitor()) {
            w0.push_back(mon->weight(0));
            w1.push_back(mon->weight(1));
        }
        const sim::Tick now = tb.sim().now();
        if (now == kDegradeAt + kSample)
            mark = app_bytes();
        if (now == kRestoreAt)
            degraded_bytes = app_bytes() - mark;
    }
    obs::RunData& run = *timeline.lastRun();
    if (!w0.empty()) {
        run.series.push_back({"w0", obs::SampleUnit::Value, w0});
        run.series.push_back({"w1", obs::SampleUnit::Value, w1});
    }

    if (print) {
        std::printf("\n# octoNIC: PF0 retrained x8->x2 at 0.30 s, "
                    "restored at 0.60 s; %d Rx streams on node 0; "
                    "monitor %s; 10 ms samples\n",
                    kStreams, monitored ? "ON" : "OFF");
        std::printf("%-8s %8s %8s %8s %8s %8s %10s\n", "t[s]", "pf0",
                    "pf1", "app", "w0", "w1", "pf0-state");
        for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
            const double t_ms = run.timesMs[i];
            const bool near_fault =
                (t_ms >= 290 && t_ms <= 370) ||
                (t_ms >= 590 && t_ms <= 690);
            if (static_cast<int>(t_ms) % 100 != 0 && !near_fault)
                continue;
            std::printf("%-8.2f", t_ms / 1000.0);
            for (std::size_t p = 0; p < series.watchCount(); ++p)
                std::printf(" %8.2f", run.series[p].values[i]);
            if (i < w0.size())
                std::printf(" %8.1f %8.1f %10s", w0[i], w1[i],
                            health::stateName(tb.monitor()->state(0)));
            std::printf("\n");
        }

        const auto& stack = tb.serverStack();
        std::printf("# resteers=%llu watchdog-fires=%llu",
                    static_cast<unsigned long long>(
                        stack.resteersPerformed()),
                    static_cast<unsigned long long>(
                        stack.watchdogFires()));
        if (tb.monitor() != nullptr)
            std::printf(" verdicts=%llu samples=%llu",
                        static_cast<unsigned long long>(
                            tb.monitor()->verdicts()),
                        static_cast<unsigned long long>(
                            tb.monitor()->samples()));
        std::printf("\n");

        if (monitored)
            timeline.writeCsvFile("fault_degradation.csv");
    }
    if (obs != nullptr)
        obs->endRun();
    return degraded_bytes;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(consumeObsFlags(argc, argv), "fault_degradation");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();

    printHeader("Graceful degradation — weighted steering under a sick "
                "(not dead) PF",
                "(time series below)");
    const std::uint64_t with = runTimeline(true, true, &obs);
    const std::uint64_t without = runTimeline(false, true, &obs);

    const double window_s = sim::toMs(kRestoreAt - kDegradeAt - kSample) /
                            1000.0;
    std::printf("\n# degraded-window app throughput: monitored %.2f Gb/s "
                "vs unmonitored %.2f Gb/s (%.2fx)\n",
                static_cast<double>(with) * 8 / 1e9 / window_s,
                static_cast<double>(without) * 8 / 1e9 / window_s,
                without > 0 ? static_cast<double>(with) / without : 0.0);
    obs.finish();
    benchmark::Shutdown();
    return 0;
}
