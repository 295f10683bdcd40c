/**
 * @file
 * Simulator-cost benchmark runner: drives one workload through the
 * library's public API (core::Testbed, workloads::NetperfStream,
 * bypass::PollPort, obs::Hub/Sampler, accmon) and prints one JSON
 * document with, for every pass and every simulated point, the
 * simulated results (the correctness digest's only input), the
 * event-core and per-layer counts, and the host time of each phase.
 *
 *     perfbench_runner --workload kernel_stream --seed 1 --seconds 10
 *                      [--trace 0|1] [--trace-out FILE]
 *                      [--slice-ns N] [--only POINT] [--min-passes N]
 *
 * A pass runs every point of the workload once, single-threaded. The
 * runner repeats passes until --seconds of host time have elapsed
 * (and at least --min-passes ran). Every pass keeps the host time of
 * each simulated slice. With --trace 1 the runner alternates an
 * untraced and a traced pass; the traced pass records one span per
 * library call (build, start, run, read, export, teardown) with its
 * parent and point id, and replays each zipf_observed point with the
 * hub detached. Spans stay in memory and are written to --trace-out
 * when the run ends. Aggregation, the invariants and the reference
 * digests live in run.py.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "workloads/netperf.hpp"

#ifndef OCTO_BENCH_BUILD_TYPE
#define OCTO_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace octo;
using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::Tick;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ JSON

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** An ordered JSON object built from key/literal pairs. */
class Record
{
  public:
    void
    put(const std::string& key, std::uint64_t v)
    {
        kv_.emplace_back(key, std::to_string(v));
    }

    void
    put(const std::string& key, std::int64_t v)
    {
        kv_.emplace_back(key, std::to_string(v));
    }

    void
    put(const std::string& key, int v)
    {
        kv_.emplace_back(key, std::to_string(v));
    }

    void
    put(const std::string& key, double v)
    {
        if (!std::isfinite(v)) {
            kv_.emplace_back(key, "null");
            return;
        }
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        kv_.emplace_back(key, buf);
    }

    void
    put(const std::string& key, bool v)
    {
        kv_.emplace_back(key, v ? "true" : "false");
    }

    void
    putStr(const std::string& key, const std::string& v)
    {
        kv_.emplace_back(key, quoted(v));
    }

    void
    putRaw(const std::string& key, std::string json)
    {
        kv_.emplace_back(key, std::move(json));
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < kv_.size(); ++i) {
            if (i > 0)
                out += ",";
            out += quoted(kv_[i].first) + ":" + kv_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

template <typename T, typename F>
std::string
jsonArray(const std::vector<T>& items, F&& toJson)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ",";
        out += toJson(items[i]);
    }
    return out + "]";
}

// --------------------------------------------------------------- tracing

/** One timed call into a layer, recorded by the traced pass. */
struct Span
{
    std::string name;
    double start = 0; ///< Seconds since the run began.
    double end = 0;
    int parent = -1; ///< Index of the enclosing span, -1 at the root.
    int point = -1;  ///< Point id shared by every span of one point.
};

/** A count read at a span boundary (after the span closed). */
struct Count
{
    std::string name;
    double value = 0;
    int span = -1;
    int point = -1;
};

/**
 * In-memory span and count log. Disabled, every call is a no-op and
 * the untraced passes pay only the clock reads they need anyway.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void setOn(bool on) { on_ = on; }

    int
    begin(const std::string& name, int parent, int point)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.start = secondsBetween(origin_, Clock::now());
        s.parent = parent;
        s.point = point;
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].end =
                secondsBetween(origin_, Clock::now());
    }

    void
    count(const std::string& name, double value, int span, int point)
    {
        if (on_)
            counts_.push_back({name, value, span, point});
    }

    std::string
    json() const
    {
        Record r;
        r.putRaw("spans", jsonArray(spans_, [](const Span& s) {
                     Record o;
                     o.putStr("name", s.name);
                     o.put("start_s", s.start);
                     o.put("end_s", s.end);
                     o.put("parent", s.parent);
                     o.put("point", s.point);
                     return o.json();
                 }));
        r.putRaw("counts", jsonArray(counts_, [](const Count& c) {
                     Record o;
                     o.putStr("name", c.name);
                     o.put("value", c.value);
                     o.put("span", c.span);
                     o.put("point", c.point);
                     return o.json();
                 }));
        return r.json();
    }

  private:
    Clock::time_point origin_;
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<Count> counts_;
};

// ----------------------------------------------------------- run options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    Tick slice = sim::fromUs(250); ///< 0 steps each phase in one call.
    std::string only;              ///< Run just this point id.
    int minPasses = 3;
};

/**
 * Host-time bookkeeping of one point: each phase's seconds, its span
 * in the traced pass, and the host time of every simulated slice
 * (the same simulated work in every pass, so run.py can take each
 * slice's least-disturbed time).
 */
class PointClock
{
  public:
    PointClock(SpanLog& log, int point, const std::string& id,
               std::vector<double>& slices)
        : log_(log), point_(point), slices_(slices),
          span_(log.begin("point:" + id, -1, point)),
          t0_(Clock::now())
    {
    }

    /** Time @p fn as phase @p name; returns its seconds. */
    template <typename F>
    double
    phase(const char* name, F&& fn)
    {
        const int s = log_.begin(name, span_, point_);
        const auto t0 = Clock::now();
        fn();
        const double dt = secondsBetween(t0, Clock::now());
        log_.end(s);
        lastSpan_ = s;
        return dt;
    }

    /**
     * Advance @p tb by @p span of simulated time in fixed slices that
     * end exactly on the horizon (the last slice is shortened, never
     * overshoots). Returns host seconds spent inside the simulator.
     */
    double
    run(Testbed& tb, Tick span, Tick slice)
    {
        double inside = 0;
        const double whole = phase("sim.run", [&] {
            sim::Simulator& s = tb.sim();
            if (slice <= 0) {
                tb.runFor(span);
                return;
            }
            const Tick end = s.now() + span;
            Tick at = s.now();
            while (at < end) {
                at = std::min(at + slice, end);
                const auto t0 = Clock::now();
                s.runUntil(at);
                const double dt = secondsBetween(t0, Clock::now());
                inside += dt;
                slices_.push_back(dt * 1e3);
            }
        });
        simMs_ += sim::toMs(span);
        return slice > 0 ? inside : whole;
    }

    /** Record a count at the boundary of the span that just closed. */
    void
    count(const std::string& name, double v)
    {
        log_.count(name, v, lastSpan_, point_);
    }

    double simMs() const { return simMs_; }

    double
    close()
    {
        log_.end(span_);
        return secondsBetween(t0_, Clock::now());
    }

  private:
    SpanLog& log_;
    int point_;
    std::vector<double>& slices_;
    int span_;
    int lastSpan_ = -1;
    double simMs_ = 0;
    Clock::time_point t0_;
};

// ------------------------------------------------------- point results

/** Everything one point reports. Only `sim` and `obs` feed the
 *  digest. */
struct PointOut
{
    std::string id;
    std::string preset;
    std::string param;
    Record sim;    ///< Simulated results (throughput, bytes, frames...).
    Record obs;    ///< Registry-derived simulated results (hub points).
    Record layers; ///< Event-core and per-layer counts (never digested).
    Record check;  ///< Invariant inputs.
    double buildS = 0, startS = 0, runS = 0, readS = 0, exportS = 0,
           teardownS = 0, wallS = 0, simMs = 0;
    std::vector<double> slicesMs; ///< Host ms of each simulated slice.

    std::string
    json() const
    {
        Record host;
        host.put("build_s", buildS);
        host.put("start_s", startS);
        host.put("run_s", runS);
        host.put("read_s", readS);
        host.put("export_s", exportS);
        host.put("teardown_s", teardownS);
        host.put("wall_s", wallS);
        host.put("sim_ms", simMs);
        Record r;
        r.putStr("id", id);
        r.putStr("preset", preset);
        r.putStr("param", param);
        r.putRaw("sim", sim.json());
        r.putRaw("obs", obs.json());
        r.putRaw("layers", layers.json());
        r.putRaw("check", check.json());
        r.putRaw("host", host.json());
        r.putRaw("slices_ms", jsonArray(slicesMs, [](double v) {
                     char buf[24];
                     std::snprintf(buf, sizeof buf, "%.6g", v);
                     return std::string(buf);
                 }));
        return r.json();
    }
};

/** A point's result record named @p id ("<preset>/<param>"). */
PointOut
namedPoint(const std::string& id)
{
    PointOut out;
    out.id = id;
    const std::size_t cut = id.find('/');
    out.preset = id.substr(0, cut);
    out.param = id.substr(cut + 1);
    return out;
}

std::string
domainTag(const sim::Domain& d)
{
    if (!d.tagged())
        return "untagged";
    std::string tag;
    if (d.node >= 0)
        tag = "node" + std::to_string(d.node);
    if (d.device >= 0)
        tag += (tag.empty() ? "dev" : ".dev") + std::to_string(d.device);
    return tag;
}

/** Model-wide simulated results common to every workload. */
void
readModel(Testbed& tb, PointOut& out)
{
    nic::NicDevice& dev = tb.serverNic();
    std::uint64_t rx = 0, tx = 0;
    for (int q = 0; q < dev.queueCount(); ++q) {
        rx += dev.queue(q).rxFrames.total();
        tx += dev.queue(q).txFrames.total();
    }
    std::uint64_t pfRx = 0, pfTx = 0;
    for (int p = 0; p < dev.functionCount(); ++p) {
        out.sim.put("pf" + std::to_string(p) + "_rx_bytes",
                    dev.pfRxBytes(p));
        out.sim.put("pf" + std::to_string(p) + "_tx_bytes",
                    dev.pfTxBytes(p));
        pfRx += dev.pfRxBytes(p);
        pfTx += dev.pfTxBytes(p);
    }
    out.sim.put("sim_ps", static_cast<std::int64_t>(tb.sim().now()));
    out.sim.put("nic_rx_frames", rx);
    out.sim.put("nic_tx_frames", tx);
    out.sim.put("nic_rx_drops", dev.rxDrops());
    out.sim.put("pcie_dma_write_bytes", pfRx);
    out.sim.put("pcie_dma_read_bytes", pfTx);
    out.sim.put("topo_qpi_bytes", tb.server().qpiBytesTotal());
    out.sim.put("topo_dram_bytes", tb.server().dramBytesTotal());

    sim::Simulator& s = tb.sim();
    out.layers.put("events", s.eventsProcessed());
    out.layers.put("cold_callbacks", s.coldCallbacks());
    out.layers.put("pool_slots",
                   static_cast<std::uint64_t>(s.poolCapacity()));
    Record domains;
    const auto& ds = s.domains();
    for (std::size_t i = 0; i < ds.size(); ++i)
        domains.put(domainTag(ds[i]), s.domainEvents(i));
    out.layers.putRaw("domain_events", domains.json());

    std::uint64_t osPackets = 0, osBytes = 0;
    if (!tb.config().bypass) {
        for (int i = 0; i < tb.serverStackCount(); ++i) {
            osPackets += tb.serverStack(i).rxPacketsProcessed();
            osBytes += tb.serverStack(i).rxBytesDelivered();
        }
    }
    out.layers.put("os_rx_packets", osPackets);
    out.layers.put("os_rx_bytes", osBytes);

    std::uint64_t polls = 0, empty = 0, pollRecords = 0;
    for (bypass::PollPlane* pl : {tb.serverPoll(), tb.clientPoll()}) {
        if (pl == nullptr)
            continue;
        for (int p = 0; p < pl->portCount(); ++p) {
            polls += pl->port(p).polls();
            empty += pl->port(p).emptyPolls();
        }
        pollRecords += pl->flows().selfRecords();
    }
    out.layers.put("bypass_polls", polls);
    out.layers.put("bypass_empty_polls", empty);
    out.layers.put("obs_attr_records",
                   dev.flows().selfRecords() + pollRecords);
    out.layers.put("obs_flow_evictions", dev.flows().evictions());

    const accmon::AccessMonitor* mon = tb.accessMonitor();
    out.layers.put("accmon_records",
                   mon != nullptr ? mon->recordsSeen() : 0);
    out.layers.put("accmon_overhead_ns",
                   mon != nullptr ? mon->overheadNs() : 0);
    out.layers.put("accmon_regions",
                   mon != nullptr ? mon->regions().regionCount() : 0);
    const accmon::SchemeEngine* se = tb.schemeEngine();
    out.sim.put("accmon_promotions",
                se != nullptr ? se->promotions() : 0);
    out.sim.put("accmon_demotions", se != nullptr ? se->demotions() : 0);

    out.check.put("negative_delays", s.negativeDelays());
}

// --------------------------------------------------------- kernel_stream

const ServerMode kPresets[] = {ServerMode::Local, ServerMode::Remote,
                               ServerMode::Ioctopus};
constexpr Tick kWarmup = sim::fromMs(5);
constexpr Tick kWindow = sim::fromMs(25);

struct StreamPoint
{
    ServerMode mode;
    std::uint64_t msg;
};

std::string
streamId(const StreamPoint& p)
{
    return std::string(core::modeName(p.mode)) + "/" +
           std::to_string(p.msg) + "B";
}

std::vector<StreamPoint>
streamPoints()
{
    std::vector<StreamPoint> pts;
    for (ServerMode m : kPresets)
        for (std::uint64_t msg : {64u, 1024u, 16384u, 65536u})
            pts.push_back({m, msg});
    return pts;
}

PointOut
runStreamPoint(const StreamPoint& p, const Options& o, SpanLog& log,
               int pointIdx)
{
    PointOut out = namedPoint(streamId(p));
    PointClock pc(log, pointIdx, out.id, out.slicesMs);

    std::unique_ptr<Testbed> tb;
    std::unique_ptr<workloads::NetperfStream> stream;
    std::optional<os::ThreadCtx> server;
    out.buildS = pc.phase("core.build", [&] {
        TestbedConfig cfg;
        cfg.mode = p.mode;
        tb = std::make_unique<Testbed>(cfg);
    });
    out.startS = pc.phase("workloads.start", [&] {
        server.emplace(tb->serverThread(tb->workNode(), 0));
        stream = std::make_unique<workloads::NetperfStream>(
            *tb, *server, tb->clientThread(0), p.msg,
            workloads::StreamDir::ServerRx);
        stream->start();
    });

    out.runS = pc.run(*tb, kWarmup, o.slice);
    const std::uint64_t bytes0 = stream->bytesDelivered();
    const Tick busy0 = server->core().busyTime();
    out.runS += pc.run(*tb, kWindow, o.slice);
    pc.count("sim.events",
             static_cast<double>(tb->sim().eventsProcessed()));

    out.readS = pc.phase("read", [&] {
        out.sim.put("window_ps", static_cast<std::int64_t>(kWindow));
        out.sim.put("window_bytes", stream->bytesDelivered() - bytes0);
        out.sim.put("delivered_bytes", stream->bytesDelivered());
        out.sim.put("server_busy_ps",
                    static_cast<std::int64_t>(
                        server->core().busyTime() - busy0));
        readModel(*tb, out);
        out.check.put("progress", stream->bytesDelivered() > bytes0);
    });
    pc.count("os.rx_packets",
             static_cast<double>(tb->serverStack(0).rxPacketsProcessed()));

    out.teardownS = pc.phase("core.teardown", [&] {
        stream.reset();
        tb.reset();
    });
    out.simMs = pc.simMs();
    out.wallS = pc.close();
    return out;
}

// ----------------------------------------------------------- poll_pktgen

constexpr int kBurst = 32;
constexpr int kDepth = 256;

struct PktgenPoint
{
    ServerMode mode;
    std::uint32_t size;
};

std::string
pktgenId(const PktgenPoint& p)
{
    return std::string(core::modeName(p.mode)) + "-poll/" +
           std::to_string(p.size) + "B";
}

std::vector<PktgenPoint>
pktgenPoints()
{
    std::vector<PktgenPoint> pts;
    for (ServerMode m : kPresets)
        for (std::uint32_t size : {64u, 1500u})
            pts.push_back({m, size});
    return pts;
}

nic::FiveTuple
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

/** Closed-loop burst transmitter: post up to a burst while the
 *  in-flight budget allows, then reap Tx completions. */
sim::Task<>
pktgenProducer(bypass::PollPort& port, nic::FiveTuple flow,
               std::uint32_t bytes, sim::Semaphore& inflight)
{
    for (;;) {
        int n = 0;
        while (n < kBurst && inflight.tryAcquire())
            ++n;
        if (n > 0)
            co_await port.txBurst(flow, bytes, n, &inflight);
        co_await port.harvestTx(2 * kBurst);
    }
}

/** Busy-poll receive-and-free sink. */
sim::Task<>
pollSink(bypass::PollPort& port, int burst)
{
    std::vector<bypass::RxPacket> pkts(static_cast<std::size_t>(burst));
    for (;;) {
        const int n = co_await port.rxBurst(pkts.data(), burst);
        for (int i = 0; i < n; ++i)
            port.freePacket(pkts[static_cast<std::size_t>(i)]);
    }
}

/** The polled generator's state; destroyed before its testbed. */
struct PktgenState
{
    bypass::PollPort* tx = nullptr;
    bypass::PollPort* sink = nullptr;
    std::unique_ptr<sim::Semaphore> inflight;
    std::vector<sim::Task<>> loops;
};

PointOut
runPktgenPoint(const PktgenPoint& p, const Options& o, SpanLog& log,
               int pointIdx)
{
    PointOut out = namedPoint(pktgenId(p));
    PointClock pc(log, pointIdx, out.id, out.slicesMs);

    std::unique_ptr<Testbed> tb;
    std::unique_ptr<PktgenState> gen;
    out.buildS = pc.phase("core.build", [&] {
        TestbedConfig cfg;
        cfg.mode = p.mode;
        cfg.bypass = true;
        cfg.bypassCfg.burst = kBurst;
        tb = std::make_unique<Testbed>(cfg);
    });
    out.startS = pc.phase("workloads.start", [&] {
        gen = std::make_unique<PktgenState>();
        gen->tx = &tb->serverPoll()->port(
            tb->server().coreOn(tb->workNode(), 0).id());
        gen->sink = &tb->clientPoll()->port(0);
        tb->clientPoll()->steerFlow(pktgenFlow(), 0);
        gen->inflight = std::make_unique<sim::Semaphore>(tb->sim(), kDepth);
        gen->loops.push_back(pktgenProducer(*gen->tx, pktgenFlow(), p.size,
                                            *gen->inflight));
        gen->loops.push_back(pollSink(*gen->sink, kBurst));
    });

    out.runS = pc.run(*tb, kWarmup, o.slice);
    const std::uint64_t frames0 = gen->tx->txFrames();
    const std::uint64_t bytes0 = gen->tx->txBytes();
    out.runS += pc.run(*tb, kWindow, o.slice);
    pc.count("sim.events",
             static_cast<double>(tb->sim().eventsProcessed()));

    out.readS = pc.phase("read", [&] {
        out.sim.put("window_ps", static_cast<std::int64_t>(kWindow));
        out.sim.put("window_frames", gen->tx->txFrames() - frames0);
        out.sim.put("window_bytes", gen->tx->txBytes() - bytes0);
        out.sim.put("sink_rx_frames", gen->sink->rxFrames());
        out.sim.put("sink_rx_bytes", gen->sink->rxBytes());
        readModel(*tb, out);
        out.check.put("progress", gen->tx->txFrames() > frames0);
    });
    pc.count("bypass.polls", static_cast<double>(gen->tx->polls() +
                                                 gen->sink->polls()));

    out.teardownS = pc.phase("core.teardown", [&] {
        gen.reset();
        tb.reset();
    });
    out.simMs = pc.simMs();
    out.wallS = pc.close();
    return out;
}

// --------------------------------------------------------- zipf_observed

constexpr std::uint32_t kZipfBytes = 1500;
constexpr Tick kZipfWarmup = sim::fromMs(10);
constexpr int kZipfWorkers = 4;
constexpr int kZipfInflight = 256;
constexpr double kOfferedGbps = 60.0;
constexpr double kQpiGbps = 22.0;

struct ZipfPoint
{
    double skew;
    int flows;
};

std::string
zipfId(const ZipfPoint& p)
{
    char id[64];
    std::snprintf(id, sizeof id, "remote/s%.1f/%df", p.skew, p.flows);
    return id;
}

std::vector<ZipfPoint>
zipfPoints()
{
    return {{0.9, 100000}, {1.2, 1000}};
}

/** Zipf(s) sampler over ranks 0..n-1 by inverse-CDF binary search. */
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
        const auto it =
            std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
        return static_cast<int>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** Flow identity for rank @p i: distinct server-bound UDP 5-tuples. */
nic::FiveTuple
zipfFlow(int i)
{
    nic::FiveTuple f;
    f.srcIp = Testbed::kClientIp + static_cast<std::uint32_t>(i >> 16);
    f.dstIp = Testbed::kServerIp;
    f.srcPort = static_cast<std::uint16_t>(i & 0xFFFF);
    f.dstPort = 5001;
    f.proto = nic::Proto::Udp;
    return f;
}

/** Paced kernel-path injector: closed loop bounded by completions,
 *  with a fixed inter-post gap setting the aggregate offered rate. */
sim::Task<>
zipfWorker(Testbed& tb, os::ThreadCtx t, const ZipfGen& zipf,
           sim::Rng& rng, sim::Semaphore& inflight, Tick gap)
{
    os::NetStack& st = tb.clientStack();
    for (;;) {
        co_await inflight.acquire();
        co_await st.rawPost(t, zipfFlow(zipf.sample(rng)), kZipfBytes,
                            inflight);
        co_await sim::delay(tb.sim(), gap);
    }
}

/** The Zipf generator's state; destroyed before its testbed. */
struct ZipfState
{
    ZipfState(double skew, int flows, std::uint64_t seed)
        : zipf(skew, flows), rng(seed)
    {
    }

    ZipfGen zipf;
    sim::Rng rng;
    std::vector<std::unique_ptr<sim::Semaphore>> windows;
    std::vector<sim::Task<>> loops;
};

/** The flow sequence's seed: the workload seed mixed with the mix. */
std::uint64_t
zipfSeed(std::uint64_t seed, int mix)
{
    return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(mix);
}

/** Null FILE sink that only counts the bytes written into
 *  @p written: export timing without touching the file system. */
std::FILE*
openNullSink(std::size_t* written)
{
    cookie_io_functions_t io{};
    io.write = [](void* cookie, const char*, std::size_t n) -> ssize_t {
        *static_cast<std::size_t*>(cookie) += n;
        return static_cast<ssize_t>(n);
    };
    return fopencookie(written, "w", io);
}

/**
 * One Zipf point. @p attached runs the observed configuration (hub,
 * registry, 1 ms sampler, export); detached is the replay that
 * isolates the observability cost.
 */
PointOut
runZipfPoint(const ZipfPoint& p, int mix, const Options& o, SpanLog& log,
             int pointIdx, bool attached)
{
    PointOut out = namedPoint(zipfId(p));
    if (!attached)
        out.id += "/detached";
    PointClock pc(log, pointIdx, out.id, out.slicesMs);

    std::unique_ptr<obs::Hub> hub;
    std::unique_ptr<obs::Report> report;
    std::unique_ptr<Testbed> tb;
    std::unique_ptr<ZipfState> gen;
    std::unique_ptr<obs::Sampler> sampler;
    out.buildS = pc.phase("core.build", [&] {
        TestbedConfig cfg;
        cfg.mode = ServerMode::Remote;
        cfg.cal.qpiGbps = kQpiGbps;
        cfg.accessMonitor = true;
        cfg.accmonSchemes = true;
        if (attached) {
            hub = std::make_unique<obs::Hub>();
            report = std::make_unique<obs::Report>();
            cfg.hub = hub.get();
        }
        tb = std::make_unique<Testbed>(cfg);
    });
    out.startS = pc.phase("workloads.start", [&] {
        gen = std::make_unique<ZipfState>(p.skew, p.flows,
                                          zipfSeed(o.seed, mix));
        const Tick gap = static_cast<Tick>(
            sim::fromSec(kZipfBytes * 8.0 / (kOfferedGbps * 1e9)) *
            kZipfWorkers);
        for (int w = 0; w < kZipfWorkers; ++w)
            gen->windows.push_back(
                std::make_unique<sim::Semaphore>(tb->sim(), kZipfInflight));
        for (int w = 0; w < kZipfWorkers; ++w)
            gen->loops.push_back(zipfWorker(*tb, tb->clientThread(w),
                                            gen->zipf, gen->rng,
                                            *gen->windows[w], gap));
        if (attached) {
            sampler = std::make_unique<obs::Sampler>(tb->sim(), *hub,
                                                     *report);
            os::NetStack* st = &tb->serverStack(0);
            topo::Machine* m = &tb->server();
            nic::NicDevice* nic = &tb->serverNic();
            sampler->watchRate("rx_gbps",
                               [st] { return st->rxBytesDelivered(); });
            sampler->watchRate("qpi_gbps",
                               [m] { return m->qpiBytesTotal(); });
            sampler->watchRate("membw_gbps",
                               [m] { return m->dramBytesTotal(); });
            for (int f = 0; f < nic->functionCount(); ++f) {
                const std::string pf = "pf" + std::to_string(f);
                sampler->watchRate(pf + "_rx_gbps",
                                   [nic, f] { return nic->pfRxBytes(f); });
            }
            sampler->start();
        }
    });

    out.runS = pc.run(*tb, kZipfWarmup, o.slice);
    nic::NicDevice& dev = tb->serverNic();
    std::vector<std::uint64_t> rx0;
    for (int q = 0; q < dev.queueCount(); ++q)
        rx0.push_back(dev.queue(q).rxFrames.total());
    out.runS += pc.run(*tb, kWindow, o.slice);
    pc.count("sim.events",
             static_cast<double>(tb->sim().eventsProcessed()));

    out.readS = pc.phase("read", [&] {
        std::uint64_t local = 0, total = 0;
        for (int q = 0; q < dev.queueCount(); ++q) {
            const nic::NicQueue& nq = dev.queue(q);
            const std::uint64_t d =
                nq.rxFrames.total() - rx0[static_cast<std::size_t>(q)];
            total += d;
            if (nq.pf->linkUp() && nq.pf->node() == nq.bufNode)
                local += d;
        }
        out.sim.put("window_ps", static_cast<std::int64_t>(kWindow));
        out.sim.put("window_frames", total);
        out.sim.put("window_local_frames", local);
        readModel(*tb, out);
        out.check.put("progress", total > 0);
        if (hub != nullptr) {
            const obs::MetricRegistry& reg = hub->metrics();
            const obs::Labels nicL = {{"dev", dev.name()}};
            const std::uint64_t dmaLocal =
                reg.sumCounters("dma_local_bytes", nicL);
            const std::uint64_t dmaRemote =
                reg.sumCounters("dma_remote_bytes", nicL);
            out.obs.put("dma_local_bytes", dmaLocal);
            out.obs.put("dma_remote_bytes", dmaRemote);
            out.obs.put("interconnect_crossings",
                        reg.sumCounters("interconnect_crossings", nicL));
            reg.forEach([&](const std::string& name, const obs::Labels& l,
                            obs::MetricKind kind) {
                if (kind != obs::MetricKind::Histogram ||
                    name != "latency_e2e_ns")
                    return;
                const obs::Histogram* h = reg.findHistogram(name, l);
                std::string key = name;
                for (const auto& [k, v] : l)
                    key += "." + k + "=" + v;
                Record hr;
                hr.put("count", h->count());
                hr.put("sum", h->sum());
                hr.put("zero", h->zeroCount());
                std::vector<std::uint64_t> buckets;
                for (int b = 0; b < obs::Histogram::kBuckets; ++b)
                    buckets.push_back(h->bucketCount(b));
                hr.putRaw("buckets",
                          jsonArray(buckets, [](std::uint64_t v) {
                              return std::to_string(v);
                          }));
                out.obs.putRaw(key, hr.json());
            });
            out.check.put("flow_local_bytes",
                          reg.sumCounters("flow_dma_local_bytes", nicL));
            out.check.put("flow_remote_bytes",
                          reg.sumCounters("flow_dma_remote_bytes", nicL));
            out.check.put("dma_local_bytes", dmaLocal);
            out.check.put("dma_remote_bytes", dmaRemote);
            out.layers.put("obs_series",
                           static_cast<std::uint64_t>(reg.size()));
        }
    });
    pc.count("obs.attr_records",
             static_cast<double>(dev.flows().selfRecords()));

    if (attached) {
        std::size_t exported = 0;
        out.exportS = pc.phase("obs.export", [&] {
            sampler.reset();
            hub->metrics().freeze();
            if (std::FILE* sink = openNullSink(&exported)) {
                hub->metrics().writePrometheus(sink);
                hub->metrics().writeCsv(sink);
                std::fclose(sink);
            }
            exported += report->jsonText().size();
        });
        pc.count("obs.export_bytes", static_cast<double>(exported));
    }

    out.teardownS = pc.phase("core.teardown", [&] {
        sampler.reset();
        gen.reset();
        tb.reset();
        report.reset();
        hub.reset();
    });
    out.simMs = pc.simMs();
    out.wallS = pc.close();
    return out;
}

// ---------------------------------------------------------------- passes

struct Pass
{
    bool traced = false;
    double wallS = 0;
    std::vector<PointOut> points;
    std::vector<PointOut> replays;
};

bool
selected(const Options& o, const std::string& id)
{
    return o.only.empty() || o.only == id;
}

Pass
runPass(const Options& o, SpanLog& log, bool traced)
{
    Pass pass;
    pass.traced = traced;
    log.setOn(traced);
    int idx = 0;
    const auto t0 = Clock::now();
    const auto zipf = zipfPoints();
    if (o.workload == "kernel_stream") {
        for (const StreamPoint& p : streamPoints())
            if (selected(o, streamId(p)))
                pass.points.push_back(
                    runStreamPoint(p, o, log, idx++));
    } else if (o.workload == "poll_pktgen") {
        for (const PktgenPoint& p : pktgenPoints())
            if (selected(o, pktgenId(p)))
                pass.points.push_back(
                    runPktgenPoint(p, o, log, idx++));
    } else {
        for (std::size_t i = 0; i < zipf.size(); ++i)
            if (selected(o, zipfId(zipf[i])))
                pass.points.push_back(runZipfPoint(
                    zipf[i], static_cast<int>(i), o, log, idx++, true));
    }
    pass.wallS = secondsBetween(t0, Clock::now());
    // The hub-detached replay is timed apart from the pass, so the
    // traced and untraced wall_s cover the same points.
    if (traced && o.workload == "zipf_observed") {
        for (std::size_t i = 0; i < zipf.size(); ++i)
            if (selected(o, zipfId(zipf[i])))
                pass.replays.push_back(runZipfPoint(
                    zipf[i], static_cast<int>(i), o, log, idx++, false));
    }
    log.setOn(false);
    return pass;
}

std::string
passJson(const Pass& p)
{
    Record r;
    r.put("traced", p.traced);
    r.put("wall_s", p.wallS);
    r.putRaw("points", jsonArray(p.points,
                                 [](const PointOut& x) { return x.json(); }));
    r.putRaw("replays", jsonArray(p.replays, [](const PointOut& x) {
                 return x.json();
             }));
    return r.json();
}

/**
 * Peak resident set of this process image in KiB. getrusage's
 * ru_maxrss keeps the pre-exec high-water mark of the forking parent
 * (a Python parent's ~20 MiB would mask the runner's own), so read the
 * image's own VmHWM and fall back to ru_maxrss only without procfs.
 */
long
peakRssKb()
{
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kb = -1;
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                break;
        }
        std::fclose(f);
        if (kb > 0)
            return kb;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "kernel_stream|poll_pktgen|zipf_observed [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--slice-ns N] [--only POINT] [--min-passes N]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench_runner: refusing an unoptimised build "
                         "(build type " OCTO_BENCH_BUILD_TYPE ")\n");
    return 3;
#endif
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v);
        else if (a == "--trace")
            o.trace = std::atoi(v) != 0;
        else if (a == "--trace-out")
            o.traceOut = v;
        else if (a == "--slice-ns")
            o.slice = sim::fromNs(std::atof(v));
        else if (a == "--only")
            o.only = v;
        else if (a == "--min-passes")
            o.minPasses = std::max(1, std::atoi(v));
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (o.workload != "kernel_stream" && o.workload != "poll_pktgen" &&
        o.workload != "zipf_observed")
        return usage("unknown workload");

    const auto origin = Clock::now();
    SpanLog log(origin);
    std::vector<Pass> passes;
    // The peak resident set after the first (untraced) pass: later
    // passes only add what abandoned model coroutines leak per testbed,
    // which would tie the figure to how many passes fit in the time.
    long rssKb = 0;
    // Untraced: repeat passes for the measured time. Traced: repeat
    // (untraced, traced) rounds, so the overhead compares like with
    // like.
    for (int round = 0; round < o.minPasses ||
                        secondsBetween(origin, Clock::now()) < o.seconds;
         ++round) {
        passes.push_back(runPass(o, log, false));
        if (round == 0)
            rssKb = peakRssKb();
        if (o.trace)
            passes.push_back(runPass(o, log, true));
    }

    if (o.trace && !o.traceOut.empty()) {
        if (std::FILE* f = std::fopen(o.traceOut.c_str(), "w")) {
            const std::string doc = log.json();
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }

    Record doc;
    doc.putStr("workload", o.workload);
    doc.put("seed", o.seed);
    doc.put("seeded", o.workload == "zipf_observed");
    doc.putStr("build_type", OCTO_BENCH_BUILD_TYPE);
    doc.putStr("compiler", __VERSION__);
    doc.put("slice_ns", sim::toNs(o.slice));
    doc.put("peak_rss_kb", static_cast<std::int64_t>(rssKb));
    doc.put("elapsed_s", secondsBetween(origin, Clock::now()));
    doc.putRaw("passes", jsonArray(passes, passJson));
    std::printf("%s\n", doc.json().c_str());
    return 0;
}
