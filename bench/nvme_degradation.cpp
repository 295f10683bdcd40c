/**
 * @file
 * OctoSSD graceful degradation: fio readers on node 0 drive a dual-port
 * NVMe drive through the multi-queue driver (one submission queue per
 * node, each homed on its local port) while a mid-run retrain drops the
 * node-0 port from x8 to x2 and later restores it.
 *
 * With the HealthMonitor attached to the driver's steering plane, the
 * port verdict re-steers SQ 0 behind the healthy remote x8 port — the
 * media stays the bottleneck and fio keeps (well over) 75% of its
 * healthy bandwidth at the price of a QPI hop per IO. Without the
 * monitor the SQ stays on the x2 link and fio collapses to the link
 * fraction. On recovery every SQ returns to its home port.
 *
 * Output: a printed timeline of fio Gb/s plus SQ->port bindings and
 * monitor weights, a monitored-vs-unmonitored retention summary, and
 * `nvme_degradation.csv` with every 5 ms sample (CI runs this binary as
 * a smoke test and checks the CSV is non-empty).
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "common.hpp"
#include "health/monitor.hpp"
#include "nvme/driver.hpp"
#include "nvme/nvme.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "topo/calibration.hpp"
#include "topo/machine.hpp"
#include "workloads/fio.hpp"

using namespace octo;

namespace {

constexpr int kFioThreads = 4;
constexpr sim::Tick kDegradeAt = sim::fromMs(30);
constexpr sim::Tick kRestoreAt = sim::fromMs(60);
constexpr sim::Tick kRunFor = sim::fromMs(100);
constexpr sim::Tick kSample = sim::fromMs(5);

struct TimelineRow
{
    double tMs;
    double fioGbps;
    int sq0Pf;
    int sq1Pf;
    std::vector<double> weights;
};

struct NvmeRun
{
    double healthyGbps = 0; ///< [5 ms, degrade) window.
    double degradedGbps = 0; ///< [degrade+5 ms, restore) window.
    bool allHome = false; ///< Every SQ back on its home port at the end.
    std::vector<TimelineRow> rows;
};

NvmeRun
runTimeline(bool monitored, bench::ObsSession* obs = nullptr)
{
    topo::Calibration cal;
    sim::Simulator sim;
    // Standalone single-host experiment: the hub attaches to the raw
    // simulator and the watches are hand-rolled.
    if (obs != nullptr && obs->active()) {
        obs->beginRun(monitored ? "monitored" : "unmonitored");
        sim.setHub(obs->hub());
    }
    topo::Machine m(sim, cal, "server");

    // Dual-port drive: x8 on the readers' socket, x8 on the other one.
    nvme::NvmeDevice ssd(m, 0, 8, "ssd");
    ssd.addSecondPort(1, 8);
    nvme::NvmeDriver drv(ssd);
    drv.addSq(0);
    drv.addSq(1);

    std::unique_ptr<health::HealthMonitor> mon;
    if (monitored) {
        mon = std::make_unique<health::HealthMonitor>(drv);
        mon->start();
    }

    workloads::FioConfig fc;
    std::vector<std::unique_ptr<workloads::FioThread>> fio;
    for (int i = 0; i < kFioThreads; ++i) {
        fio.push_back(std::make_unique<workloads::FioThread>(
            os::ThreadCtx(m, m.coreOn(0, i)),
            std::vector<nvme::NvmeDriver*>{&drv}, fc));
        fio.back()->start();
    }
    auto fio_bytes = [&] {
        std::uint64_t total = 0;
        for (const auto& f : fio)
            total += f->bytesRead();
        return total;
    };

    sim.schedule(kDegradeAt, [&] { ssd.port(0).degradeWidth(2); });
    sim.schedule(kRestoreAt, [&] { ssd.port(0).restoreLink(); });

    if (obs != nullptr) {
        if (obs::Sampler* s = obs->makeSampler(sim)) {
            s->watchRate("fio_read_gbps",
                         [&fio_bytes] { return fio_bytes(); });
            s->watchRate("qpi_gbps", [&m] { return m.qpiBytesTotal(); });
            s->watchGauge("sq0_pf", [&drv] {
                return static_cast<double>(drv.sq(0).pf);
            });
            s->watchGauge("sq1_pf", [&drv] {
                return static_cast<double>(drv.sq(1).pf);
            });
            if (mon != nullptr) {
                for (int p = 0; p < 2; ++p) {
                    health::HealthMonitor* mp = mon.get();
                    s->watchGauge(
                        "port" + std::to_string(p) + "_health_weight",
                        [mp, p] { return mp->weight(p); });
                }
            }
            s->start();
        }
    }

    NvmeRun run;
    std::uint64_t healthy_mark = 0;
    std::uint64_t degraded_mark = 0;
    std::uint64_t prev = 0;
    for (sim::Tick t = 0; t < kRunFor; t += kSample) {
        sim.runUntil(t + kSample);
        const sim::Tick now = sim.now();
        const std::uint64_t bytes = fio_bytes();
        run.rows.push_back(
            {sim::toMs(now), sim::toGbps(bytes - prev, kSample),
             drv.sq(0).pf, drv.sq(1).pf,
             mon != nullptr ? mon->weights() : std::vector<double>{}});
        prev = bytes;

        if (now == sim::fromMs(5))
            healthy_mark = bytes;
        if (now == kDegradeAt)
            run.healthyGbps =
                sim::toGbps(bytes - healthy_mark, kDegradeAt - sim::fromMs(5));
        if (now == kDegradeAt + kSample)
            degraded_mark = bytes;
        if (now == kRestoreAt)
            run.degradedGbps = sim::toGbps(
                bytes - degraded_mark, kRestoreAt - kDegradeAt - kSample);
    }
    run.allHome = drv.sq(0).pf == drv.sq(0).homePf &&
                  drv.sq(1).pf == drv.sq(1).homePf;
    if (obs != nullptr)
        obs->endRun();
    return run;
}

void
printRun(const NvmeRun& run, bool monitored)
{
    std::printf("\n# OctoSSD: node-0 port retrained x8->x2 at 0.03 s, "
                "restored at 0.06 s; %d fio readers on node 0; "
                "monitor %s; 5 ms samples\n",
                kFioThreads, monitored ? "ON" : "OFF");
    std::printf("%-8s %8s %7s %7s %8s %8s\n", "t[s]", "fio", "sq0-pf",
                "sq1-pf", "w0", "w1");
    for (const TimelineRow& r : run.rows) {
        std::printf("%-8.3f %8.2f %7d %7d", r.tMs / 1000.0, r.fioGbps,
                    r.sq0Pf, r.sq1Pf);
        if (r.weights.size() >= 2)
            std::printf(" %8.1f %8.1f", r.weights[0], r.weights[1]);
        std::printf("\n");
    }
}

void
writeCsv(const NvmeRun& run)
{
    std::FILE* csv = std::fopen("nvme_degradation.csv", "w");
    if (csv == nullptr)
        return;
    std::fprintf(csv, "time_ms,fio_gbps,sq0_pf,sq1_pf,w0_gbps,w1_gbps\n");
    for (const TimelineRow& r : run.rows) {
        std::fprintf(csv, "%.3f,%.3f,%d,%d", r.tMs, r.fioGbps, r.sq0Pf,
                     r.sq1Pf);
        if (r.weights.size() >= 2)
            std::fprintf(csv, ",%.3f,%.3f", r.weights[0], r.weights[1]);
        else
            std::fprintf(csv, ",,");
        std::fprintf(csv, "\n");
    }
    std::fclose(csv);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::ObsSession obs(bench::parseFlags(argc, argv).obs,
                          "nvme_degradation");

    std::printf("\n### OctoSSD degradation — per-queue steering on the "
                "NVMe plane\n(time series below)\n");
    const NvmeRun with = runTimeline(true, &obs);
    const NvmeRun without = runTimeline(false, &obs);
    printRun(with, true);
    printRun(without, false);
    writeCsv(with);

    const double keep_with =
        with.healthyGbps > 0 ? with.degradedGbps / with.healthyGbps : 0;
    const double keep_without =
        without.healthyGbps > 0 ? without.degradedGbps / without.healthyGbps
                                : 0;
    std::printf("\n# degraded-window fio retention: monitored %.0f%% "
                "(%.2f of %.2f Gb/s) vs unmonitored %.0f%% "
                "(%.2f of %.2f Gb/s)\n",
                keep_with * 100, with.degradedGbps, with.healthyGbps,
                keep_without * 100, without.degradedGbps,
                without.healthyGbps);
    std::printf("# queues home after recovery: monitored %s, "
                "unmonitored %s\n",
                with.allHome ? "yes" : "NO", without.allHome ? "yes" : "NO");
    if (keep_with < 0.75)
        std::printf("# WARNING: monitored retention below the 75%% "
                    "acceptance bar\n");
    obs.finish();
    return 0;
}
