/**
 * @file
 * Chaos soak: fault-storm campaigns (chaos::storm's Poisson arrivals
 * over PF kills, width/gen retrains, silent link flaps, gray
 * delay/drop, queue stalls, QPI degradation and interrupt drop/delay)
 * swept over intensity x preset (interrupt kernel stack and `-poll`
 * bypass), monitored vs unmonitored, with the chaos::Oracle re-checking
 * conservation invariants every 500 us *during* the faults. Each run
 * reports goodput retention against a fault-free baseline of the same
 * preset plus the oracle verdict.
 *
 * Two deterministic scenarios run on top of the sweep:
 *
 *  - gray-contrast: a heavy gray episode (delay + silent drop) on the
 *    PF serving all streams. Stock telemetry (link, bwFraction, AER)
 *    stays nominal, so the plain monitor never reacts; the
 *    differential prober demotes the outlier sibling and steering
 *    moves the flows. Expected: probed retention >= 2x both the
 *    unmonitored and the stock-monitored runs.
 *  - all-sick last resort: PF1 killed while PF0 is gray — every local
 *    path is sick. The monitor's last-resort settle keeps serving on
 *    the least-bad live PF with bounded loss. Expected: bytes still
 *    flow in the window and the oracle stays green.
 *
 * Output: `chaos_soak.csv` (one row per sweep run) and
 * `chaos_soak_report.json` (rows + scenario verdicts). The bench
 * asserts nothing: tools/check_chaos_soak.py checks the report. The
 * usual `--trace` / `--metrics` / `--sample-us` flags observe the
 * prober-monitored gray-contrast run under the `chaos_soak_obs`
 * prefix. `--quick` trims the sweep to one intensity for the ctest
 * run.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bypass/plane.hpp"
#include "chaos/campaign.hpp"
#include "chaos/oracle.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "sim/task.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

constexpr sim::Tick kSoakWarmup = sim::fromMs(2);
constexpr sim::Tick kHorizon = sim::fromMs(60);
constexpr int kStreams = 4;
constexpr int kBurst = 32;
constexpr int kDepth = 256;
constexpr std::uint32_t kFrame = 1024;

/** One sweep run's numbers. */
struct SoakRun
{
    double gbps = 0;
    std::uint64_t oracleChecks = 0;
    std::uint64_t oracleViolations = 0;
    std::uint64_t proberDemotions = 0;
    std::uint64_t resteers = 0;
};

struct SoakRow
{
    std::string preset;
    double intensity = 0;
    bool monitored = false;
    SoakRun run;
    double retention = 0;
};

/** A flow may legitimately stall while a PF is dead or gray. */
std::function<bool()>
sickPathExemption(Testbed& tb)
{
    return [&tb] {
        nic::NicDevice& nic = tb.serverNic();
        for (int p = 0; p < nic.functionCount(); ++p) {
            if (!nic.function(p).linkUp() ||
                nic.function(p).grayFaulted())
                return true;
        }
        return false;
    };
}

void
armCommonWatches(chaos::Oracle& oracle, Testbed& tb,
                 std::function<std::uint64_t()> progress,
                 std::function<std::uint64_t()> churn)
{
    oracle.watchChurn("resteers", std::move(churn), 128);
    oracle.watchProgress("delivered", std::move(progress),
                         sim::fromMs(10), sickPathExemption(tb));
}

/** Kernel-preset soak: @p kStreams TCP Rx streams on node 0 (all
 *  served by PF0 under the Ioctopus preset) under @p plan. */
SoakRun
runKernelSoak(const fault::FaultPlan& plan, bool monitored,
              ObsSession* obs = nullptr, const std::string& label = {})
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults = plan;
    if (obs != nullptr && !label.empty())
        obsBegin(obs, cfg, label);
    // The monitor/prober pair is this run's comparison knob, so the
    // explicit setting must win over obsBegin's convenience default.
    cfg.healthMonitor = monitored;
    cfg.diffProber = monitored;
    Testbed tb(cfg);

    const NodeZeroStreams streams(tb, kStreams,
                                  workloads::StreamDir::ServerRx);
    auto delivered = [&streams] { return streams.delivered(); };

    chaos::Oracle oracle(tb.sim());
    armCommonWatches(oracle, tb, delivered, [&tb] {
        return tb.serverStack().resteersPerformed();
    });
    oracle.start();
    if (obs != nullptr && !label.empty())
        obs->startSampler(tb);

    tb.runFor(kSoakWarmup);
    const std::uint64_t mark = delivered();
    tb.runFor(kHorizon);
    SoakRun res;
    res.gbps = sim::toGbps(delivered() - mark, kHorizon);
    res.oracleChecks = oracle.checks();
    res.oracleViolations = oracle.violations();
    for (const chaos::Violation& v : oracle.log())
        std::fprintf(stderr, "# oracle[%s]: %s at %.1f us: %s\n",
                     label.empty() ? "kernel" : label.c_str(),
                     v.invariant.c_str(), sim::toUs(v.at),
                     v.snapshot.c_str());
    if (tb.prober() != nullptr)
        res.proberDemotions = tb.prober()->demotions();
    res.resteers = tb.serverStack().resteersPerformed();
    if (obs != nullptr && !label.empty())
        obs->endRun();
    return res;
}

/** Polled-preset soak: continuous burst generator into a polled sink
 *  under @p plan, with mempool conservation watched throughout. */
SoakRun
runPollSoak(const fault::FaultPlan& plan, bool monitored,
            ObsSession* obs = nullptr, const std::string& label = {})
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.bypass = true;
    cfg.faults = plan;
    if (obs != nullptr && !label.empty())
        obsBegin(obs, cfg, label);
    cfg.healthMonitor = monitored;
    cfg.diffProber = monitored;
    Testbed tb(cfg);

    bypass::PollPort& tx =
        tb.serverPoll()->port(tb.server().coreOn(tb.workNode(), 0).id());
    bypass::PollPort& sink = tb.clientPoll()->port(0);
    tb.clientPoll()->steerFlow(pktgenFlow(), 0);

    sim::Semaphore inflight(tb.sim(), kDepth);
    sim::Task<> producer =
        burstProducer(tx, pktgenFlow(), kFrame, kBurst, inflight);
    sim::Task<> sinkT = burstSink(sink, kBurst);

    chaos::Oracle oracle(tb.sim());
    oracle.watchMempool("server", tb.serverPoll()->mempool(),
                        cfg.cal.nodes);
    oracle.watchMempool("client", tb.clientPoll()->mempool(),
                        cfg.cal.nodes);
    oracle.addInvariant("tx_inflight_bounds", [&]() -> std::string {
        if (inflight.count() < 0 || inflight.count() > kDepth)
            return "inflight credits " +
                   std::to_string(inflight.count()) + " outside [0, " +
                   std::to_string(kDepth) + "]";
        return {};
    });
    armCommonWatches(
        oracle, tb,
        [&sink] { return sink.rxFrames() * kFrame; },
        [&tb] { return tb.serverPoll()->resteersPerformed(); });
    oracle.start();
    if (obs != nullptr && !label.empty())
        obs->startSampler(tb);

    tb.runFor(kSoakWarmup);
    const std::uint64_t mark = sink.rxFrames();
    tb.runFor(kHorizon);
    SoakRun res;
    res.gbps =
        sim::toGbps((sink.rxFrames() - mark) * kFrame, kHorizon);
    res.oracleChecks = oracle.checks();
    res.oracleViolations = oracle.violations();
    for (const chaos::Violation& v : oracle.log())
        std::fprintf(stderr, "# oracle[%s]: %s at %.1f us: %s\n",
                     label.empty() ? "poll" : label.c_str(),
                     v.invariant.c_str(), sim::toUs(v.at),
                     v.snapshot.c_str());
    if (tb.prober() != nullptr)
        res.proberDemotions = tb.prober()->demotions();
    res.resteers = tb.serverPoll()->resteersPerformed();
    if (obs != nullptr && !label.empty())
        obs->endRun();
    return res;
}

fault::FaultPlan
stormPlan(double intensity, std::uint64_t seed, int queues)
{
    chaos::StormSpec spec;
    spec.seed = seed;
    spec.horizon = kHorizon;
    spec.intensity = intensity;
    spec.targets = {2, queues, 0};
    return chaos::storm(spec);
}

/** The gray-contrast plan: heavy delay + silent drop on PF0, the PF
 *  every node-0 stream is served by. */
fault::FaultPlan
grayContrastPlan()
{
    fault::FaultPlan plan;
    chaos::grayEpisode(plan, sim::fromMs(5), sim::fromMs(55), 0,
                       /*delay_p=*/0.7, /*extra=*/sim::fromUs(400),
                       /*drop_p=*/0.8);
    chaos::mustValidate(plan, {2, -1, -1});
    return plan;
}

/** Gray-contrast variant with the monitor on but the prober off:
 *  probes the claim that stock telemetry alone never reacts. */
struct GrayStockResult
{
    SoakRun run;
    bool stockHealthy = false;
    std::uint64_t externalDemotions = 0;
};

GrayStockResult
runGrayStock()
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults = grayContrastPlan();
    cfg.healthMonitor = true; // monitor on, prober off
    Testbed tb(cfg);
    const NodeZeroStreams streams(tb, kStreams,
                                  workloads::StreamDir::ServerRx);
    tb.runFor(kSoakWarmup);
    const std::uint64_t mark = streams.delivered();
    tb.runFor(sim::fromMs(48)); // t = 50 ms: deep inside the episode
    GrayStockResult res;
    res.stockHealthy =
        tb.monitor()->state(0) == health::HealthState::Healthy;
    res.externalDemotions = tb.monitor()->externalDemotions();
    tb.runFor(kHorizon - sim::fromMs(48));
    res.run.gbps = sim::toGbps(streams.delivered() - mark, kHorizon);
    res.run.resteers = tb.serverStack().resteersPerformed();
    return res;
}

/** All-sick last resort: PF1 dead while PF0 is gray — no healthy
 *  local path. Samples the monitor weights through the window to
 *  catch the all-zero verdict the last-resort settle answers. */
struct LastResortResult
{
    SoakRun run;
    bool allWeightsZeroSeen = false;
};

LastResortResult
runLastResort()
{
    fault::FaultPlan plan;
    plan.pfKill(sim::fromMs(5), 1).pfRecover(sim::fromMs(40), 1);
    chaos::grayEpisode(plan, sim::fromMs(5), sim::fromMs(40), 0,
                       /*delay_p=*/0.7, /*extra=*/sim::fromUs(400),
                       /*drop_p=*/0.3);
    chaos::mustValidate(plan, {2, -1, -1});

    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    cfg.faults = plan;
    cfg.healthMonitor = true;
    cfg.diffProber = true;
    Testbed tb(cfg);
    const NodeZeroStreams streams(tb, kStreams,
                                  workloads::StreamDir::ServerRx);
    auto delivered = [&streams] { return streams.delivered(); };

    chaos::Oracle oracle(tb.sim());
    armCommonWatches(oracle, tb, delivered, [&tb] {
        return tb.serverStack().resteersPerformed();
    });
    oracle.start();

    LastResortResult res;
    tb.runFor(sim::fromMs(5));
    const std::uint64_t mark = delivered();
    for (int i = 0; i < 70; ++i) { // 5 -> 40 ms in 500 us steps
        tb.runFor(sim::fromUs(500));
        if (tb.monitor()->weight(0) <= 0 &&
            tb.monitor()->weight(1) <= 0)
            res.allWeightsZeroSeen = true;
    }
    // Bytes moved while every local path was sick: bounded loss, not
    // an outage.
    res.run.gbps = sim::toGbps(delivered() - mark, sim::fromMs(35));
    tb.runFor(sim::fromMs(40)); // heal + settle
    res.run.oracleChecks = oracle.checks();
    res.run.oracleViolations = oracle.violations();
    for (const chaos::Violation& v : oracle.log())
        std::fprintf(stderr, "# oracle[last-resort]: %s at %.1f us: %s\n",
                     v.invariant.c_str(), sim::toUs(v.at),
                     v.snapshot.c_str());
    res.run.proberDemotions = tb.prober()->demotions();
    res.run.resteers = tb.serverStack().resteersPerformed();
    return res;
}

void
writeOutputs(const std::vector<SoakRow>& rows, const SoakRun& plain,
             const GrayStockResult& stock, const SoakRun& probed,
             const LastResortResult& lr)
{
    if (std::FILE* f = std::fopen("chaos_soak.csv", "w")) {
        std::fprintf(f,
                     "preset,intensity,monitored,gbps,retention,"
                     "oracle_checks,oracle_violations,"
                     "prober_demotions,resteers\n");
        for (const SoakRow& r : rows)
            std::fprintf(f, "%s,%.2f,%d,%.3f,%.3f,%llu,%llu,%llu,%llu\n",
                         r.preset.c_str(), r.intensity,
                         r.monitored ? 1 : 0, r.run.gbps, r.retention,
                         static_cast<unsigned long long>(
                             r.run.oracleChecks),
                         static_cast<unsigned long long>(
                             r.run.oracleViolations),
                         static_cast<unsigned long long>(
                             r.run.proberDemotions),
                         static_cast<unsigned long long>(
                             r.run.resteers));
        std::fclose(f);
        std::printf("# wrote chaos_soak.csv (%zu rows)\n", rows.size());
    }
    if (std::FILE* f = std::fopen("chaos_soak_report.json", "w")) {
        std::fprintf(f, "{\n  \"bench\": \"chaos_soak\",\n"
                        "  \"rows\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const SoakRow& r = rows[i];
            std::fprintf(
                f,
                "    {\"preset\": \"%s\", \"intensity\": %.2f, "
                "\"monitored\": %s, \"gbps\": %.3f, "
                "\"retention\": %.3f, \"oracle_checks\": %llu, "
                "\"oracle_violations\": %llu, "
                "\"prober_demotions\": %llu, \"resteers\": %llu}%s\n",
                r.preset.c_str(), r.intensity,
                r.monitored ? "true" : "false", r.run.gbps, r.retention,
                static_cast<unsigned long long>(r.run.oracleChecks),
                static_cast<unsigned long long>(r.run.oracleViolations),
                static_cast<unsigned long long>(r.run.proberDemotions),
                static_cast<unsigned long long>(r.run.resteers),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(
            f,
            "  ],\n"
            "  \"gray_contrast\": {\"plain_gbps\": %.3f, "
            "\"stock_gbps\": %.3f, \"probed_gbps\": %.3f, "
            "\"prober_demotions\": %llu, "
            "\"stock_external_demotions\": %llu, "
            "\"stock_state_healthy\": %s},\n"
            "  \"last_resort\": {\"sick_window_gbps\": %.3f, "
            "\"all_weights_zero_seen\": %s, "
            "\"oracle_checks\": %llu, \"oracle_violations\": %llu, "
            "\"prober_demotions\": %llu}\n}\n",
            plain.gbps, stock.run.gbps, probed.gbps,
            static_cast<unsigned long long>(probed.proberDemotions),
            static_cast<unsigned long long>(stock.externalDemotions),
            stock.stockHealthy ? "true" : "false", lr.run.gbps,
            lr.allWeightsZeroSeen ? "true" : "false",
            static_cast<unsigned long long>(lr.run.oracleChecks),
            static_cast<unsigned long long>(lr.run.oracleViolations),
            static_cast<unsigned long long>(lr.run.proberDemotions));
        std::fclose(f);
        std::printf("# wrote chaos_soak_report.json\n");
    }
}

} // namespace

int
main(int argc, char** argv)
{
    const Flags flags = parseFlags(argc, argv);
    ObsSession obs(flags.obs, "chaos_soak_obs");
    const std::vector<double> intensities =
        flags.quick ? std::vector<double>{1.0}
                    : std::vector<double>{0.5, 1.0, 2.0};

    TestbedConfig probe_cfg; // only for the calibrated queue count
    const int queues =
        probe_cfg.cal.nodes * probe_cfg.cal.coresPerNode;

    // Fault-free baselines, matched per preset x monitored so the
    // monitor's own probe overhead cancels out of the retention ratio.
    const fault::FaultPlan none;
    double base[2][2]; // [poll][monitored]
    base[0][0] = runKernelSoak(none, false).gbps;
    base[0][1] = runKernelSoak(none, true).gbps;
    base[1][0] = runPollSoak(none, false).gbps;
    base[1][1] = runPollSoak(none, true).gbps;

    printHeader("Chaos soak — storm retention, oracle verdicts",
                "preset        intens  mon   Gb/s   retention  "
                "oracle(viol/checks)  demote  resteer");
    std::vector<SoakRow> rows;
    for (double intensity : intensities) {
        for (int poll = 0; poll < 2; ++poll) {
            for (int mon = 0; mon < 2; ++mon) {
                const fault::FaultPlan plan =
                    stormPlan(intensity, 42, queues);
                SoakRow row;
                row.preset = poll ? "ioctopus-poll" : "ioctopus";
                row.intensity = intensity;
                row.monitored = mon != 0;
                row.run = poll ? runPollSoak(plan, mon != 0)
                               : runKernelSoak(plan, mon != 0);
                row.retention = base[poll][mon] > 0
                                    ? row.run.gbps / base[poll][mon]
                                    : 0.0;
                std::printf(
                    "%-13s %6.2f  %-4s %6.2f   %8.2f   %10llu/%-8llu"
                    " %6llu  %7llu\n",
                    row.preset.c_str(), intensity,
                    row.monitored ? "on" : "off", row.run.gbps,
                    row.retention,
                    static_cast<unsigned long long>(
                        row.run.oracleViolations),
                    static_cast<unsigned long long>(
                        row.run.oracleChecks),
                    static_cast<unsigned long long>(
                        row.run.proberDemotions),
                    static_cast<unsigned long long>(row.run.resteers));
                rows.push_back(std::move(row));
            }
        }
    }

    // Gray contrast: unmonitored, stock-monitored (no prober), and
    // prober-monitored runs against the same silent-drop episode.
    const SoakRun gray_plain = runKernelSoak(grayContrastPlan(), false);
    const GrayStockResult gray_stock = runGrayStock();
    const SoakRun gray_probed =
        runKernelSoak(grayContrastPlan(), true, &obs, "gray-probed");
    printHeader("Gray contrast — silent drop/delay on the serving PF",
                "variant            Gb/s    demotions");
    std::printf("%-18s %6.2f   %9llu\n", "unmonitored",
                gray_plain.gbps, 0ull);
    std::printf("%-18s %6.2f   %9llu  (state healthy=%d, external=%llu)\n",
                "stock-monitored", gray_stock.run.gbps, 0ull,
                gray_stock.stockHealthy ? 1 : 0,
                static_cast<unsigned long long>(
                    gray_stock.externalDemotions));
    std::printf("%-18s %6.2f   %9llu\n", "prober-monitored",
                gray_probed.gbps,
                static_cast<unsigned long long>(
                    gray_probed.proberDemotions));

    const LastResortResult lr = runLastResort();
    printHeader("All-sick last resort — PF1 dead, PF0 gray",
                "sick-window Gb/s   all-zero-weights  oracle viol");
    std::printf("%15.2f   %16s  %11llu\n", lr.run.gbps,
                lr.allWeightsZeroSeen ? "seen" : "not-seen",
                static_cast<unsigned long long>(
                    lr.run.oracleViolations));

    writeOutputs(rows, gray_plain, gray_stock, gray_probed, lr);
    obs.finish();
    return 0;
}
