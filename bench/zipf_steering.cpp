/**
 * @file
 * Zipf-skewed flow steering: the access monitor's quota-bounded
 * promote/demote schemes against the reactive-only baseline, on the
 * Remote preset (kernel and -poll), under a congested interconnect.
 *
 * Shape: every server queue sits behind the node-0 PF while the
 * consuming cores — and therefore ring/buffer homes — split across
 * both sockets, so RSS lands ~half the offered bytes on DMA-remote
 * rings. The calibration pins the interconnect well below the offered
 * load, so the remote half saturates it: DMA writes stall, Rx rings
 * overrun, goodput drops. The monitored runs watch the region map and
 * promote the elected hottest flows to DMA-local queues, which both
 * raises the local-byte share and relieves the interconnect — the
 * acceptance ordering is monitored > reactive on local share AND
 * goodput, on both presets.
 *
 * Sweep: skew s in {0.9, 1.2} x {1k, 100k} flows x {reactive,
 * monitored} x {remote, remote-poll}. `--quick` trims to s=1.2/1k
 * flows (the CI smoke leg). Results land in zipf_steering.csv. With
 * an observability option on, the s=1.2/1k runs (the `--quick`
 * subset) are attached to the hub as they run; with `--sample-us`,
 * the report.json of the monitored ones carries the v2 `regions`
 * section (heatmap input). Those runs' `ovh%` then divides the
 * monitor's cost by the host time of a hub-attached run.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/rng.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

constexpr std::uint32_t kPktBytes = 1500;
constexpr Tick kZipfWarmup = sim::fromMs(10);
constexpr int kWorkers = 4;      ///< Client injector cores (node 0).
constexpr int kInflight = 256;   ///< Per-worker completion window.
constexpr int kPollBurst = 4;    ///< Frames per bypass tx doorbell.
constexpr double kOfferedGbps = 60.0;
constexpr double kQpiGbps = 22.0; ///< Saturated by ~30 Gb/s remote DMA.

const double kSkews[] = {0.9, 1.2};
const int kFlowCounts[] = {1000, 100000};

/** Zipf(s) sampler over ranks 0..n-1 via inverse-CDF binary search. */
class ZipfGen
{
  public:
    ZipfGen(double skew, int n) : cdf_(static_cast<std::size_t>(n))
    {
        double sum = 0.0;
        for (int i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
            cdf_[static_cast<std::size_t>(i)] = sum;
        }
        for (double& c : cdf_)
            c /= sum;
    }

    int
    sample(sim::Rng& rng) const
    {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<int>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Flow identity for rank @p i: distinct 5-tuples, server-bound. */
nic::FiveTuple
flowFor(int i)
{
    nic::FiveTuple f;
    f.srcIp = core::Testbed::kClientIp +
              static_cast<std::uint32_t>(i >> 16);
    f.dstIp = core::Testbed::kServerIp;
    f.srcPort = static_cast<std::uint16_t>(i & 0xFFFF);
    f.dstPort = 5001;
    f.proto = nic::Proto::Udp;
    return f;
}

/** Paced kernel-path injector: closed loop bounded by completions,
 *  with a fixed inter-post gap setting the aggregate offered rate. */
sim::Task<>
kernelWorker(Testbed& tb, os::ThreadCtx t, const ZipfGen& zipf,
             sim::Rng& rng, sim::Semaphore& inflight, Tick gap)
{
    os::NetStack& st = tb.clientStack();
    for (;;) {
        co_await inflight.acquire();
        co_await st.rawPost(t, flowFor(zipf.sample(rng)), kPktBytes,
                            inflight);
        co_await sim::delay(tb.sim(), gap);
    }
}

/** Paced bypass injector: one Zipf draw per small tx burst. */
sim::Task<>
pollWorker(Testbed& tb, bypass::PollPort& port, const ZipfGen& zipf,
           sim::Rng& rng, sim::Semaphore& inflight, Tick gap)
{
    for (;;) {
        for (int i = 0; i < kPollBurst; ++i)
            co_await inflight.acquire();
        co_await port.txBurst(flowFor(zipf.sample(rng)), kPktBytes,
                              kPollBurst, &inflight);
        co_await port.harvestTx(2 * kPollBurst);
        co_await sim::delay(tb.sim(), gap);
    }
}

struct ZipfResult
{
    double localShare = 0.0; ///< DMA-local fraction of delivered frames.
    double gbps = 0.0;       ///< Goodput (frames that reached a ring).
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    int regions = 0;
    double overheadPct = 0.0; ///< Monitor wall-ns / host wall-ns.
};

ZipfResult
runZipf(bool bypass, double skew, int flows, bool monitored,
        ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Remote;
    cfg.bypass = bypass;
    cfg.cal.qpiGbps = kQpiGbps;
    cfg.accessMonitor = monitored;
    cfg.accmonSchemes = monitored;
    char label[96];
    std::snprintf(label, sizeof label, "%s/s%.1f/%df/%s",
                  bypass ? "remote-poll" : "remote", skew, flows,
                  monitored ? "monitored" : "reactive");
    obsBegin(obs, cfg, label);
    Testbed tb(cfg);

    const ZipfGen zipf(skew, flows);
    sim::Rng rng(static_cast<std::uint64_t>(flows) * 131 +
                 static_cast<std::uint64_t>(skew * 10) + bypass);
    // Aggregate pacing: each worker posts every kWorkers packet-times.
    const Tick gap = static_cast<Tick>(
        sim::fromSec(kPktBytes * 8.0 / (kOfferedGbps * 1e9)) *
        kWorkers * (bypass ? kPollBurst : 1));

    std::vector<sim::Task<>> loops;
    std::vector<std::unique_ptr<sim::Semaphore>> windows;
    for (int w = 0; w < kWorkers; ++w)
        windows.push_back(std::make_unique<sim::Semaphore>(
            tb.sim(), bypass ? kInflight / kPollBurst * kPollBurst
                             : kInflight));
    if (bypass) {
        for (int p = 0; p < tb.serverPoll()->portCount(); ++p)
            loops.push_back(burstSink(tb.serverPoll()->port(p), 16));
        for (int w = 0; w < kWorkers; ++w)
            loops.push_back(pollWorker(tb, tb.clientPoll()->port(w),
                                       zipf, rng, *windows[w], gap));
    } else {
        for (int w = 0; w < kWorkers; ++w)
            loops.push_back(kernelWorker(tb, tb.clientThread(w), zipf,
                                         rng, *windows[w], gap));
    }
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kZipfWarmup);

    nic::NicDevice& dev = tb.serverNic();
    const int nq = dev.queueCount();
    std::vector<std::uint64_t> rx0(static_cast<std::size_t>(nq));
    for (int q = 0; q < nq; ++q)
        rx0[static_cast<std::size_t>(q)] =
            dev.queue(q).rxFrames.total();
    const accmon::AccessMonitor* mon = tb.accessMonitor();
    const std::uint64_t oh0 = mon != nullptr ? mon->overheadNs() : 0;
    const Tick t0 = tb.sim().now();
    const auto wall0 = std::chrono::steady_clock::now();

    tb.runFor(kWindow);

    const double hostNs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall0)
                .count());
    const double secs = sim::toSec(tb.sim().now() - t0);
    std::uint64_t local = 0, total = 0;
    for (int q = 0; q < nq; ++q) {
        const nic::NicQueue& nqr = dev.queue(q);
        const std::uint64_t d =
            nqr.rxFrames.total() - rx0[static_cast<std::size_t>(q)];
        total += d;
        if (nqr.pf->linkUp() && nqr.pf->node() == nqr.bufNode)
            local += d;
    }

    ZipfResult r;
    r.localShare = total > 0
                       ? static_cast<double>(local) /
                             static_cast<double>(total)
                       : 0.0;
    r.gbps = static_cast<double>(total) * kPktBytes * 8.0 / secs / 1e9;
    if (mon != nullptr) {
        r.regions = mon->regions().regionCount();
        r.overheadPct =
            hostNs > 0.0
                ? 100.0 *
                      static_cast<double>(mon->overheadNs() - oh0) /
                      hostNs
                : 0.0;
    }
    if (const accmon::SchemeEngine* se = tb.schemeEngine()) {
        r.promotions = se->promotions();
        r.demotions = se->demotions();
    }
    if (obs != nullptr) {
        obs->harvestAccmon(mon);
        obs->endRun();
    }
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    const Flags flags = parseFlags(argc, argv);
    ObsSession obs(flags.obs, "zipf_steering");
    const std::size_t skewLo = flags.quick ? 1 : 0;
    const std::size_t flowsHi = flags.quick ? 1 : std::size(kFlowCounts);

    std::FILE* csv = std::fopen("zipf_steering.csv", "w");
    if (csv != nullptr) {
        std::fprintf(csv,
                     "preset,skew,flows,scheme,local_share,gbps,"
                     "promotions,demotions,regions,overhead_pct\n");
    }
    printHeader(
        "Zipf steering — proactive schemes vs reactive-only (Remote)",
        "preset       s    flows   scheme     local%   Gb/s   "
        "promo  demo  regions  ovh%");
    for (int bypass = 0; bypass <= 1; ++bypass) {
        const char* preset = bypass ? "remote-poll" : "remote";
        for (std::size_t s = skewLo; s < std::size(kSkews); ++s) {
            for (std::size_t f = 0; f < flowsHi; ++f) {
                // The quick subset runs observed.
                ObsSession* observed = s == 1 && f == 0 ? &obs : nullptr;
                for (int mon = 0; mon <= 1; ++mon) {
                    const ZipfResult r = runZipf(
                        bypass != 0, kSkews[s], kFlowCounts[f],
                        mon != 0, observed);
                    std::printf("%-12s %3.1f %7d   %-9s %7.1f %6.1f "
                                "%6llu %5llu %8d %5.2f\n",
                                preset, kSkews[s], kFlowCounts[f],
                                mon ? "monitored" : "reactive",
                                100.0 * r.localShare, r.gbps,
                                static_cast<unsigned long long>(
                                    r.promotions),
                                static_cast<unsigned long long>(
                                    r.demotions),
                                r.regions, r.overheadPct);
                    if (csv != nullptr) {
                        std::fprintf(
                            csv,
                            "%s,%.1f,%d,%s,%.4f,%.3f,%llu,%llu,%d,"
                            "%.3f\n",
                            preset, kSkews[s], kFlowCounts[f],
                            mon ? "monitored" : "reactive",
                            r.localShare, r.gbps,
                            static_cast<unsigned long long>(
                                r.promotions),
                            static_cast<unsigned long long>(
                                r.demotions),
                            r.regions, r.overheadPct);
                    }
                }
            }
        }
    }
    if (csv != nullptr) {
        std::fclose(csv);
        std::printf("# wrote zipf_steering.csv\n");
    }
    obs.finish();
    return 0;
}
