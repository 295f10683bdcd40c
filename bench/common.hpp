/**
 * @file
 * Shared experiment runners for the figure-reproduction benchmarks.
 *
 * Each bench binary regenerates one table/figure from the paper's
 * evaluation (§5): it sweeps the paper's parameter, runs the simulated
 * testbed once per sweep point in the relevant server configurations,
 * and prints the same series the paper plots as a row table.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accmon/monitor.hpp"
#include "accmon/scheme.hpp"
#include "bypass/plane.hpp"
#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/stats.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/netperf.hpp"
#include "workloads/pktgen.hpp"

namespace octo::bench {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::Tick;

/** Standard measurement window used by the throughput benches. */
constexpr Tick kWarmup = sim::fromMs(5);
constexpr Tick kWindow = sim::fromMs(25);

/** What the observability pass of a bench should record. */
struct ObsOptions
{
    bool trace = false;   ///< Perfetto trace (`<prefix>_trace.json`).
    bool metrics = false; ///< Metric snapshot (`.prom` + `.csv`).
    /** Sampler cadence; 0 keeps periodic sampling off. */
    Tick samplePeriod = 0;

    bool
    any() const
    {
        return trace || metrics || samplePeriod > 0;
    }
};

/** The options every bench binary takes. */
struct Flags
{
    ObsOptions obs;
    /** Trim a long sweep to its CI-smoke subset; benches without one
     *  ignore it. */
    bool quick = false;
};

/** Print the usage line for a bad argument @p arg and exit 2. */
[[noreturn]] inline void
usageExit(const char* prog, const char* arg)
{
    std::fprintf(stderr,
                 "%s: bad argument '%s'\n"
                 "usage: %s [--trace] [--metrics] [--sample-us N] "
                 "[--quick]\n",
                 prog, arg, prog);
    std::exit(2);
}

/**
 * Parse a bench's command line: `--trace`, `--metrics`,
 * `--sample-us N` and `--quick`. Anything else prints the
 * usage line and exits 2. A trace or sampling implies the metric
 * snapshot; sampling writes the counter tracks into the trace only
 * when `--trace` is given too.
 */
inline Flags
parseFlags(int argc, char** argv)
{
    Flags f;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) {
            f.obs.trace = true;
        } else if (std::strcmp(argv[i], "--metrics") == 0) {
            f.obs.metrics = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            f.quick = true;
        } else if (std::strcmp(argv[i], "--sample-us") == 0 &&
                   i + 1 < argc) {
            char* end = nullptr;
            const double us = std::strtod(argv[++i], &end);
            // At least one tick, and small enough for an int64 Tick.
            if (*end != '\0' || !(us >= 1e-6 && us <= 1e12))
                usageExit(argv[0], argv[i]);
            f.obs.samplePeriod = sim::fromUs(us);
        } else {
            usageExit(argv[0], argv[i]);
        }
    }
    if (f.obs.trace || f.obs.samplePeriod > 0)
        f.obs.metrics = true;
    return f;
}

/**
 * One bench binary's observability pipeline: the shared Hub, the
 * accumulated Report, and (per run) a Sampler with the standard
 * testbed watch set. Inactive (all options off) it is a null object —
 * every call is a cheap no-op and the benches run exactly as before.
 *
 * Lifecycle per run (preset/pass):
 *
 *     ObsSession obs(parseFlags(argc, argv).obs, "fig06");
 *     ...
 *     obs.beginRun("ioctopus");        // BEFORE the Testbed: run label
 *     cfg.hub = obs.hub();             //   tags its instruments
 *     Testbed tb(cfg);
 *     obs.startSampler(tb);            // AFTER: watches read the models
 *     ... run ...
 *     obs.endRun();                    // BEFORE tb dies: stop + freeze
 *     ...
 *     obs.finish();                    // once: write all output files
 *
 * Run labels must be unique within a binary — instruments are keyed by
 * (name, labels incl. run), so a repeated label would alias two runs.
 */
class ObsSession
{
  public:
    ObsSession(ObsOptions opt, std::string prefix)
        : opt_(opt), prefix_(std::move(prefix))
    {
    }

    bool active() const { return opt_.any(); }
    explicit operator bool() const { return active(); }
    bool sampling() const { return opt_.samplePeriod > 0; }
    const ObsOptions& options() const { return opt_; }

    /** The hub for TestbedConfig.hub / sim.setHub; null when off. */
    obs::Hub* hub() { return active() ? &hub_ : nullptr; }

    obs::Report& report() { return report_; }

    /** Start a labeled run: tag instruments/pids and arm the tracer. */
    void
    beginRun(const std::string& run)
    {
        if (!active())
            return;
        hub_.setRun(run);
        if (opt_.trace)
            hub_.tracer().enable(obs::kCatAll);
    }

    /**
     * Attach the standard watch set for a testbed run and start
     * sampling: rx Gb/s, interconnect bytes + crossing rate, memory
     * bandwidth, per-PF DMA rates, (when a HealthMonitor is attached)
     * per-PF weight/state, and (when an access monitor is attached)
     * its region count and scheme-action rate. Null when sampling is
     * off.
     */
    obs::Sampler*
    startSampler(Testbed& tb)
    {
        if (!sampling())
            return nullptr;
        sampler_ = std::make_unique<obs::Sampler>(
            tb.sim(), hub_, report_, opt_.samplePeriod);
        obs::Sampler& s = *sampler_;
        if (bypass::PollPlane* pl = tb.serverPoll()) {
            // Polled presets: delivery is whatever the ports harvested;
            // there is no NetStack to ask.
            s.watchRate("poll_rx_gbps",
                        [pl] { return pl->rxBytesTotal(); });
            s.watchRate("poll_tx_gbps",
                        [pl] { return pl->txBytesTotal(); });
        } else {
            os::NetStack* st = &tb.serverStack(0);
            s.watchRate("rx_gbps",
                        [st] { return st->rxBytesDelivered(); });
        }
        topo::Machine* m = &tb.server();
        s.watchRate("qpi_gbps", [m] { return m->qpiBytesTotal(); });
        s.watchRate("membw_gbps", [m] { return m->dramBytesTotal(); });
        obs::MetricRegistry* reg = &hub_.metrics();
        obs::Labels match = {{"host", "server"}};
        if (!hub_.run().empty())
            match.push_back({"run", hub_.run()});
        s.watchRate(
            "qpi_crossings_per_s",
            [reg, match] {
                return reg->sumCounters("qpi_crossings", match);
            },
            obs::SampleUnit::PerSec);
        nic::NicDevice* nic = &tb.serverNic();
        for (int p = 0; p < nic->functionCount(); ++p) {
            const std::string pf = "pf" + std::to_string(p);
            s.watchRate(pf + "_rx_gbps",
                        [nic, p] { return nic->pfRxBytes(p); });
            s.watchRate(pf + "_tx_gbps",
                        [nic, p] { return nic->pfTxBytes(p); });
        }
        if (health::HealthMonitor* mon = tb.monitor()) {
            for (int p = 0; p < nic->functionCount(); ++p) {
                const std::string pf = "pf" + std::to_string(p);
                s.watchGauge(pf + "_health_weight",
                             [mon, p] { return mon->weight(p); });
                s.watchGauge(pf + "_health_state", [mon, p] {
                    return static_cast<double>(
                        static_cast<int>(mon->state(p)));
                });
            }
        }
        if (const accmon::AccessMonitor* am = tb.accessMonitor()) {
            s.watchGauge("accmon_regions", [am] {
                return static_cast<double>(am->regions().regionCount());
            });
        }
        if (const accmon::SchemeEngine* se = tb.schemeEngine()) {
            s.watchRate(
                "accmon_scheme_applied_per_s",
                [se] { return se->appliedTotal(); },
                obs::SampleUnit::PerSec);
        }
        s.start();
        return &s;
    }

    /** Bare sampler for non-Testbed benches (NVMe); add watches and
     *  call ->start() yourself. Null when sampling is off. */
    obs::Sampler*
    makeSampler(sim::Simulator& sim)
    {
        if (!sampling())
            return nullptr;
        sampler_ =
            std::make_unique<obs::Sampler>(sim, hub_, report_,
                                           opt_.samplePeriod);
        return sampler_.get();
    }

    /**
     * Copy @p mon's interval snapshots into the current run's report
     * section (the `regions` block that bumps the document schema to
     * `octo.report.v2`). Call after the measurement window and before
     * endRun() tears the testbed down. No-op when sampling is off,
     * @p mon is null, or the monitor captured nothing.
     */
    void
    harvestAccmon(const accmon::AccessMonitor* mon)
    {
        if (!sampling() || mon == nullptr)
            return;
        obs::RunData* run = report_.lastRun();
        if (run == nullptr || mon->snapshots().empty())
            return;
        run->regionsDev = mon->dev();
        run->regionSamples = mon->snapshots();
    }

    /** End the current run: the sampler dies (its task is scheduled on
     *  the run's simulator) and callback instruments freeze. MUST run
     *  before the run's Testbed/Simulator is destroyed. */
    void
    endRun()
    {
        if (!active())
            return;
        sampler_.reset();
        hub_.metrics().freeze();
    }

    /** Write every requested output file; prints what was written. */
    void
    finish()
    {
        if (!active())
            return;
        if (opt_.trace) {
            const std::string p = prefix_ + "_trace.json";
            hub_.tracer().writeFile(p);
            std::printf("# observability: wrote %s (%zu events, %llu "
                        "dropped)\n",
                        p.c_str(), hub_.tracer().eventCount(),
                        static_cast<unsigned long long>(
                            hub_.tracer().droppedEvents()));
        }
        if (opt_.metrics) {
            const std::string prom = prefix_ + "_metrics.prom";
            const std::string csv = prefix_ + "_metrics.csv";
            if (std::FILE* f = std::fopen(prom.c_str(), "w")) {
                hub_.metrics().writePrometheus(f);
                std::fclose(f);
            }
            if (std::FILE* f = std::fopen(csv.c_str(), "w")) {
                hub_.metrics().writeCsv(f);
                std::fclose(f);
            }
            std::printf("# observability: wrote %s + %s (%zu series)\n",
                        prom.c_str(), csv.c_str(),
                        hub_.metrics().size());
        }
        if (sampling()) {
            const std::string json = prefix_ + "_report.json";
            const std::string csv = prefix_ + "_report.csv";
            report_.writeJsonFile(json);
            report_.writeCsvFile(csv);
            std::size_t samples = 0;
            for (const auto& r : report_.runs())
                samples += r.timesMs.size();
            std::printf("# observability: wrote %s + %s (%zu runs, "
                        "%zu samples)\n",
                        json.c_str(), csv.c_str(),
                        report_.runs().size(), samples);
        }
    }

  private:
    ObsOptions opt_;
    std::string prefix_;
    obs::Hub hub_;
    obs::Report report_;
    std::unique_ptr<obs::Sampler> sampler_;
};

/**
 * The hub a bench's own timeline Sampler reports through: the
 * session's (obsBegin already set its run label) when observability is
 * on, else @p own labelled @p run, so the report's run column is
 * filled either way.
 */
inline obs::Hub&
timelineHub(ObsSession* obs, obs::Hub& own, const std::string& run)
{
    if (obs != nullptr && obs->active())
        return *obs->hub();
    own.setRun(run);
    return own;
}

/**
 * Wire a config for an observability pass: label the run, attach the
 * hub, and — when sampling an Ioctopus config — attach the health
 * monitor so per-PF weight/state tracks exist even in healthy runs.
 * No-op when @p obs is null or inactive.
 */
inline void
obsBegin(ObsSession* obs, TestbedConfig& cfg, const std::string& run)
{
    if (obs == nullptr || !obs->active())
        return;
    obs->beginRun(run);
    cfg.hub = obs->hub();
    if (obs->sampling() && cfg.mode == ServerMode::Ioctopus)
        cfg.healthMonitor = true;
}

/** Snapshot-delta probe over a measurement window. */
class Probe
{
  public:
    Probe(Testbed& tb, const std::vector<topo::Core*>& cores,
          std::uint64_t app_bytes0)
        : tb_(tb), cores_(cores), bytes0_(app_bytes0),
          dram0_(tb.server().dramBytesTotal()),
          qpi0_(tb.server().qpiBytesTotal()), t0_(tb.sim().now())
    {
        for (auto* c : cores_)
            busy0_.push_back(c->busyTime());
    }

    /** Application throughput in Gb/s given the current byte count. */
    double
    gbps(std::uint64_t app_bytes) const
    {
        return sim::toGbps(app_bytes - bytes0_, elapsed());
    }

    /** Server memory bandwidth over the window, Gb/s. */
    double
    membwGbps() const
    {
        return sim::toGbps(tb_.server().dramBytesTotal() - dram0_,
                           elapsed());
    }

    /** Server interconnect traffic over the window, Gb/s. */
    double
    qpiGbps() const
    {
        return sim::toGbps(tb_.server().qpiBytesTotal() - qpi0_,
                           elapsed());
    }

    /** Aggregate busy fraction of the probed cores, in cores. */
    double
    cpuCores() const
    {
        Tick busy = 0;
        for (std::size_t i = 0; i < cores_.size(); ++i)
            busy += cores_[i]->busyTime() - busy0_[i];
        return static_cast<double>(busy) / elapsed();
    }

    Tick elapsed() const { return tb_.sim().now() - t0_; }

  private:
    Testbed& tb_;
    std::vector<topo::Core*> cores_;
    std::uint64_t bytes0_;
    std::uint64_t dram0_;
    std::uint64_t qpi0_;
    Tick t0_;
    std::vector<Tick> busy0_;
};

/** The paper's testbed in @p mode, every other knob at its default. */
inline TestbedConfig
modeConfig(ServerMode mode)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    return cfg;
}

/** Result triple reported by the netperf stream figures. */
struct StreamResult
{
    double gbps = 0;
    double membwGbps = 0;
    double cpuCores = 0;
};

/**
 * Single-core netperf TCP_STREAM experiment (Figs. 6 and 7): app thread
 * and NIC interrupts share one server core of a testbed built from
 * @p cfg. An active ObsSession runs the full pipeline for the pass —
 * run-labeled instruments (default label: the mode name), trace spans,
 * periodic counter tracks — and when sampling is on the health monitor
 * is attached (Ioctopus mode) so per-PF weight/state curves exist even
 * in healthy runs.
 */
inline StreamResult
runTcpStream(TestbedConfig cfg, std::uint64_t msg_bytes,
             workloads::StreamDir dir, Tick warmup = kWarmup,
             Tick window = kWindow, ObsSession* obs = nullptr,
             const std::string& run_label = {})
{
    obsBegin(obs, cfg,
             run_label.empty() ? core::modeName(cfg.mode) : run_label);
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, msg_bytes,
                                    dir);
    stream.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(warmup);
    Probe probe(tb, {&server_t.core()}, stream.bytesDelivered());
    tb.runFor(window);
    StreamResult res{probe.gbps(stream.bytesDelivered()),
                     probe.membwGbps(), probe.cpuCores()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

/**
 * @p n netperf streams of 64 KiB messages, stream i between server
 * core i of node 0 and client core i, each started as it is built.
 * Under the Ioctopus preset every one of them sits behind PF0.
 */
class NodeZeroStreams
{
  public:
    NodeZeroStreams(Testbed& tb, int n, workloads::StreamDir dir)
    {
        for (int i = 0; i < n; ++i) {
            streams_.push_back(std::make_unique<workloads::NetperfStream>(
                tb, tb.serverThread(0, i), tb.clientThread(i), 64u << 10,
                dir));
            streams_.back()->start();
        }
    }

    /** Application bytes delivered over all the streams so far. */
    std::uint64_t
    delivered() const
    {
        std::uint64_t total = 0;
        for (const auto& s : streams_)
            total += s->bytesDelivered();
        return total;
    }

  private:
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams_;
};

/**
 * Start @p pairs STREAM pairs on the server cores the single-core
 * figures leave idle (core 0 of the work node hosts the workload),
 * split across both sockets, each pair one reader and one writer
 * targeting the other socket's memory (Figs. 11 and 12).
 */
inline std::vector<std::unique_ptr<workloads::StreamAntagonist>>
startStreamPairs(Testbed& tb, int pairs)
{
    std::vector<std::unique_ptr<workloads::StreamAntagonist>> ants;
    int next_core[2] = {1, 1};
    for (int p = 0; p < pairs; ++p) {
        const int node = p % 2;
        for (auto dir : {topo::MemDir::Read, topo::MemDir::Write}) {
            topo::Core& c =
                tb.server().coreOn(node, next_core[node]++ %
                                             tb.server().cal()
                                                 .coresPerNode);
            ants.push_back(std::make_unique<workloads::StreamAntagonist>(
                tb.server(), c, 1 - node, dir));
            ants.back()->start();
        }
    }
    return ants;
}

/** Packet rate, wire throughput and server memory bandwidth of a
 *  pktgen-style transmitter. */
struct PktgenResult
{
    double mpps;
    double gbps;
    double membwGbps;
};

/**
 * Single-core pktgen on the interrupt stack (Fig. 8): raw frames of
 * @p size bytes from core 0 of the work node, 256 descriptors in
 * flight.
 */
inline PktgenResult
runPktgen(ServerMode mode, std::uint32_t size, ObsSession* obs = nullptr)
{
    TestbedConfig cfg = modeConfig(mode);
    obsBegin(obs, cfg, core::modeName(mode));
    Testbed tb(cfg);
    auto t = tb.serverThread(tb.workNode(), 0);
    workloads::Pktgen gen(tb, t, size);
    gen.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kWarmup);
    Probe probe(tb, {&t.core()}, gen.bytesSent());
    const std::uint64_t p0 = gen.packetsSent();
    tb.runFor(kWindow);
    const double secs = sim::toSec(probe.elapsed());
    PktgenResult res{(gen.packetsSent() - p0) / secs / 1e6,
                     probe.gbps(gen.bytesSent()), probe.membwGbps()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

/** The flow workloads::Pktgen transmits on: server to client, UDP. */
inline nic::FiveTuple
pktgenFlow()
{
    nic::FiveTuple f;
    f.srcIp = Testbed::kServerIp;
    f.dstIp = Testbed::kClientIp;
    f.srcPort = 7000;
    f.dstPort = 7001;
    f.proto = nic::Proto::Udp;
    return f;
}

/**
 * Closed-loop polled transmitter: post up to @p burst descriptors of
 * @p bytes on @p flow, then reap Tx completions; @p inflight bounds
 * the descriptors outstanding.
 */
inline sim::Task<>
burstProducer(bypass::PollPort& port, nic::FiveTuple flow,
              std::uint32_t bytes, int burst, sim::Semaphore& inflight)
{
    for (;;) {
        int n = 0;
        while (n < burst && inflight.tryAcquire())
            ++n;
        if (n > 0)
            co_await port.txBurst(flow, bytes, n, &inflight);
        // Reaping in the same loop keeps the ring from wedging when
        // the in-flight budget is exhausted; an idle pass costs one
        // empty poll, exactly like a DPDK Tx drain.
        co_await port.harvestTx(2 * burst);
    }
}

/** Polled receive-and-free sink, @p burst frames per poll. */
inline sim::Task<>
burstSink(bypass::PollPort& port, int burst)
{
    std::vector<bypass::RxPacket> pkts(burst);
    for (;;) {
        const int n = co_await port.rxBurst(pkts.data(), burst);
        for (int i = 0; i < n; ++i)
            port.freePacket(pkts[i]);
    }
}

/** Printf a header once per figure. */
inline void
printHeader(const std::string& title, const std::string& cols)
{
    std::printf("\n### %s\n%s\n", title.c_str(), cols.c_str());
}

} // namespace octo::bench
