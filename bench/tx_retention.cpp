/**
 * @file
 * Tx-retention timeline: four TCP *transmit* streams sourced on node 0
 * while a FaultPlan retrains PF0 from x8 down to x2 mid-run. On the Tx
 * path the health win flows through queueForCore(): once the monitor
 * down-weights the sick PF and drain-rebinds the node-0 rings behind
 * the healthy remote PF, the XPS pick hands every send a ring whose
 * DMA reads bypass the x2 link. The override column counts the direct
 * per-post XPS redirects — zero here, because with one ring per core
 * the rebind covers the whole job before any post needs overriding. A
 * final variant gives every core spare Tx-only rings (7 rings/core,
 * 8 senders), which de-aligns the monitor's per-group keepSlot verdict
 * from queueForCore's whole-device one and forces the per-post
 * override path to fire (asserted nonzero).
 *
 * The run repeats without the monitor — the plain driver keeps posting
 * on the core's home ring, so the degraded window throttles to the x2
 * rate — and the degraded-window application bytes of both runs are
 * compared.
 *
 * Output: a printed per-PF Tx timeline with the override rate, and
 * `tx_retention.csv` with the monitored run's 10 ms samples in the
 * report's long format (run,series,unit,time_ms,value; the override
 * series is an events-per-second rate, unit `per_s`). With `--trace`
 * the monitored run also records steering/health trace events into
 * `tx_retention_trace.json` plus a Prometheus snapshot in
 * `tx_retention_metrics.prom`. `--quick` runs all three variants on a
 * timeline 5x shorter (degrade at 60 ms, restore at 120 ms, 200 ms
 * horizon), for the traced ctest fixture.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

constexpr int kStreams = 4;
constexpr sim::Tick kSample = sim::fromMs(10);

/** When PF0 retrains to x2, when it is restored, and the horizon. */
struct Timeline
{
    sim::Tick degradeAt;
    sim::Tick restoreAt;
    sim::Tick runFor;
};

constexpr Timeline kFull{sim::fromMs(300), sim::fromMs(600),
                         sim::fromMs(1000)};
constexpr Timeline kQuick{sim::fromMs(60), sim::fromMs(120),
                          sim::fromMs(200)};

struct TxRunResult
{
    /** Application bytes delivered inside the degraded window
     *  [degrade+10ms, restore). */
    std::uint64_t degradedBytes = 0;
    /** Per-post XPS redirects (queueForCore disagreeing with the
     *  core's home ring). */
    std::uint64_t overrides = 0;
};

/** One timeline run. @p tx_rings > 1 gives every core spare Tx-only
 *  rings, making the per-core ring numbering diverge from the
 *  monitor's group slots — the per-post override path fires. */
TxRunResult
runTimeline(const Timeline& tl, bool monitored, bool print,
            ObsSession* obs, const char* label, int tx_rings = 1,
            int streams = kStreams)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.txRingsPerCore = tx_rings;
    cfg.faults.pcieWidthDegrade(tl.degradeAt, 0, 2)
        .pcieRestore(tl.restoreAt, 0);
    obsBegin(obs, cfg, label);
    // After obsBegin: the monitor is this run's comparison knob, not an
    // observability convenience, so the explicit setting must win.
    cfg.healthMonitor = monitored;
    Testbed tb(cfg);

    // The senders run on node 0, so XPS posts through PF0 — the
    // endpoint the plan retrains down to x2 — until the monitor's
    // weights make queueForCore pick a PF1 ring instead.
    const NodeZeroStreams netperf(tb, streams,
                                  workloads::StreamDir::ServerTx);
    auto app_bytes = [&netperf] { return netperf.delivered(); };

    obs::Hub own;
    obs::Report timeline;
    obs::Sampler series(tb.sim(), timelineHub(obs, own, label), timeline,
                        kSample);
    series.watchRate("pf0_tx",
                     [&] { return tb.serverNic().pfTxBytes(0); });
    series.watchRate("pf1_tx",
                     [&] { return tb.serverNic().pfTxBytes(1); });
    series.watchRate("app", app_bytes);
    series.watchRate("xps_override",
                     [&] { return tb.serverStack().txQueueOverrides(); },
                     obs::SampleUnit::PerSec);
    series.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    std::uint64_t degraded_bytes = 0;
    std::uint64_t mark = 0;
    for (sim::Tick t = 0; t < tl.runFor; t += kSample) {
        tb.runFor(kSample);
        const sim::Tick now = tb.sim().now();
        if (now == tl.degradeAt + kSample)
            mark = app_bytes();
        if (now == tl.restoreAt)
            degraded_bytes = app_bytes() - mark;
    }

    if (print) {
        const double degrade_ms = sim::toMs(tl.degradeAt);
        const double restore_ms = sim::toMs(tl.restoreAt);
        std::printf("\n# octoNIC: PF0 retrained x8->x2 at %.2f s, "
                    "restored at %.2f s; %d Tx streams from node 0; "
                    "monitor %s; 10 ms samples\n",
                    degrade_ms / 1000.0, restore_ms / 1000.0, streams,
                    monitored ? "ON" : "OFF");
        std::printf("%-8s %10s %10s %10s %14s\n", "t[s]", "pf0-tx",
                    "pf1-tx", "app", "override/s");
        // Every tenth of the horizon, plus every sample around the two
        // fault edges.
        const int stride = static_cast<int>(sim::toMs(tl.runFor)) / 10;
        const obs::RunData& run = timeline.runs().front();
        for (std::size_t i = 0; i < run.timesMs.size(); ++i) {
            const double t_ms = run.timesMs[i];
            const bool near_fault =
                (t_ms >= degrade_ms - 10 && t_ms <= degrade_ms + 70) ||
                (t_ms >= restore_ms - 10 && t_ms <= restore_ms + 90);
            if (static_cast<int>(t_ms) % stride != 0 && !near_fault)
                continue;
            std::printf("%-8.2f %10.2f %10.2f %10.2f %14.0f\n",
                        t_ms / 1000.0, run.series[0].values[i],
                        run.series[1].values[i], run.series[2].values[i],
                        run.series[3].values[i]);
        }
        std::printf("# tx-overrides=%llu resteers=%llu\n",
                    static_cast<unsigned long long>(
                        tb.serverStack().txQueueOverrides()),
                    static_cast<unsigned long long>(
                        tb.serverStack().resteersPerformed()));

        if (monitored)
            timeline.writeCsvFile("tx_retention.csv");
    }

    if (obs != nullptr)
        obs->endRun();
    return TxRunResult{degraded_bytes,
                       tb.serverStack().txQueueOverrides()};
}

} // namespace

int
main(int argc, char** argv)
{
    const Flags flags = parseFlags(argc, argv);
    const Timeline& tl = flags.quick ? kQuick : kFull;
    ObsSession obs(flags.obs, "tx_retention");

    printHeader("Tx retention — health-aware XPS under a degraded PF",
                "(time series below)");
    const TxRunResult with =
        runTimeline(tl, true, true, &obs, "monitored");
    const TxRunResult without =
        runTimeline(tl, false, true, &obs, "plain");

    const double window_s =
        sim::toMs(tl.restoreAt - tl.degradeAt - kSample) / 1000.0;
    std::printf("\n# degraded-window app throughput: monitored %.2f Gb/s "
                "vs unmonitored %.2f Gb/s (%.2fx)\n",
                static_cast<double>(with.degradedBytes) * 8 / 1e9 /
                    window_s,
                static_cast<double>(without.degradedBytes) * 8 / 1e9 /
                    window_s,
                without.degradedBytes > 0
                    ? static_cast<double>(with.degradedBytes) /
                          without.degradedBytes
                    : 0.0);

    // Multi-ring variant: spare Tx-only rings de-align the monitor's
    // per-PF-group keepSlot verdict from queueForCore's whole-device
    // one, so some rings the monitor keeps home fail the per-post
    // check and individual sends get redirected — the counter the
    // single-ring runs leave at 0.
    const TxRunResult multi =
        runTimeline(tl, true, false, &obs, "monitored-7rings", 7, 8);
    std::printf("# tx-overrides: 1 ring/core=%llu, 7 rings/core=%llu\n",
                static_cast<unsigned long long>(with.overrides),
                static_cast<unsigned long long>(multi.overrides));
    obs.finish();
    if (multi.overrides == 0) {
        std::fprintf(stderr,
                     "FAIL: expected nonzero per-post XPS overrides "
                     "with 7 Tx rings per core\n");
        return 1;
    }
    return 0;
}
