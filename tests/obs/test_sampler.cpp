/**
 * @file
 * Tests for the periodic telemetry sampler and the run report: sampling
 * cadence, start baseline and rate math, long-format CSV, counter-track
 * JSON shape, report determinism, the read-only guarantee (simulated
 * results are bit-identical with the sampler on or off), and the
 * end-to-end latency split between the remote and IOctopus presets.
 */
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "obs/hub.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "workloads/netperf.hpp"

namespace octo::obs {
namespace {

TEST(Sampler, CadenceAndRateMath)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    Report report;
    const sim::Tick period = sim::fromUs(100);
    Sampler s(sim, hub, report, period);

    std::uint64_t bytes = 123456; // pre-start history: must not count
    std::uint64_t events = 0;
    s.watchRate("r_gbps", [&] { return bytes; });
    s.watchRate("r_per_s", [&] { return events; },
                SampleUnit::PerSec);
    s.watchGauge("g", [] { return 2.5; });
    s.start();
    // Feed both cumulative probes a fixed delta per window, just
    // before each sampler tick.
    for (int i = 1; i <= 10; ++i)
        sim.schedule(period * i - sim::fromNs(1), [&] {
            bytes += 1250;
            events += 3;
        });
    sim.runUntil(sim::fromMs(1));

    EXPECT_EQ(s.sampleCount(), 10u);
    ASSERT_EQ(report.runs().size(), 1u);
    const RunData& run = report.runs().front();
    EXPECT_EQ(run.period, period);
    ASSERT_EQ(run.timesMs.size(), 10u);
    EXPECT_DOUBLE_EQ(run.timesMs.front(), 0.1);
    EXPECT_DOUBLE_EQ(run.timesMs.back(), 1.0);

    ASSERT_EQ(run.series.size(), 3u);
    for (const SeriesData& sd : run.series)
        ASSERT_EQ(sd.values.size(), 10u);
    // 1250 B per 100 us window.
    EXPECT_DOUBLE_EQ(run.series[0].values[0],
                     sim::toGbps(1250, period));
    EXPECT_DOUBLE_EQ(run.series[0].values[4],
                     sim::toGbps(1250, period));
    // 3 events per 100 us window = 30k/s.
    EXPECT_DOUBLE_EQ(run.series[1].values[4], 30000.0);
    EXPECT_DOUBLE_EQ(run.series[2].values[4], 2.5);

    // Long-format CSV: a header, then one row per series per sample.
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    report.writeCsv(f);
    std::rewind(f);
    char line[128];
    ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
    EXPECT_STREQ(line, "run,series,unit,time_ms,value\n");
    ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
    EXPECT_STREQ(line, ",r_gbps,gbps,0.100,0.1\n");
    int rows = 1;
    while (std::fgets(line, sizeof line, f) != nullptr)
        ++rows;
    EXPECT_EQ(rows, 30);
    std::fclose(f);
}

TEST(Sampler, EmitsCounterTrackEvents)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    hub.tracer().enable(kCatCounter);
    Report report;
    Sampler s(sim, hub, report, sim::fromUs(100));
    s.watchGauge("my_track", [] { return 3.25; });
    s.start();
    sim.runUntil(sim::fromUs(300));

    const std::string doc = hub.tracer().json();
    EXPECT_NE(doc.find("\"ph\":\"C\",\"name\":\"my_track\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"args\":{\"value\":3.25}"), std::string::npos);
    // The tracks group under the run-prefixed telemetry process.
    EXPECT_NE(doc.find("telemetry"), std::string::npos);
    EXPECT_EQ(hub.tracer().eventCount(), 3u);
}

TEST(Sampler, MaskedOutCounterCategoryStillFillsReport)
{
    sim::Simulator sim;
    Hub hub;
    sim.setHub(&hub);
    hub.tracer().enable(kCatDma); // counters masked out
    Report report;
    Sampler s(sim, hub, report, sim::fromUs(100));
    s.watchGauge("g", [] { return 1.0; });
    s.start();
    sim.runUntil(sim::fromUs(500));

    EXPECT_EQ(hub.tracer().eventCount(), 0u);
    ASSERT_EQ(report.runs().size(), 1u);
    EXPECT_EQ(report.runs().front().series.front().values.size(), 5u);
}

/** One sampled 3 ms Ioctopus Rx run; returns the report JSON. */
std::string
sampledRunJson()
{
    Hub hub;
    hub.setRun("det");
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    cfg.hub = &hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    Report report;
    Sampler s(tb.sim(), hub, report, sim::fromUs(500));
    s.watchRate("rx_gbps", [&] { return stream.bytesDelivered(); });
    s.start();
    tb.runFor(sim::fromMs(3));
    hub.metrics().freeze();
    return report.jsonText();
}

TEST(Sampler, ReportJsonIsDeterministicAndSchemaTagged)
{
    const std::string a = sampledRunJson();
    const std::string b = sampledRunJson();
    EXPECT_EQ(a, b) << "identical runs must export identical reports";
    EXPECT_NE(a.find("\"schema\":\"octo.report.v1\""),
              std::string::npos);
    EXPECT_NE(a.find("\"run\":\"det\""), std::string::npos);
    EXPECT_NE(a.find("\"name\":\"rx_gbps\""), std::string::npos);
    EXPECT_NE(a.find("\"unit\":\"gbps\""), std::string::npos);
}

/** Bytes delivered by a 5 ms Rx run, with or without full telemetry. */
std::uint64_t
runBytes(bool sampled)
{
    Hub hub;
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Ioctopus;
    if (sampled) {
        hub.tracer().enable(kCatAll);
        hub.setRun("sampled");
        cfg.hub = &hub;
    }
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();

    Report report;
    std::unique_ptr<Sampler> s;
    if (sampled) {
        s = std::make_unique<Sampler>(tb.sim(), hub, report,
                                      sim::fromUs(100));
        s->watchRate("rx_gbps", [&] { return stream.bytesDelivered(); });
        s->watchGauge("g", [] { return 1.0; });
        s->start();
    }
    tb.runFor(sim::fromMs(5));
    if (sampled)
        hub.metrics().freeze();
    return stream.bytesDelivered();
}

TEST(Sampler, SamplingDoesNotPerturbTheSimulation)
{
    const std::uint64_t off = runBytes(false);
    const std::uint64_t on = runBytes(true);
    EXPECT_GT(off, 0u);
    EXPECT_EQ(on, off)
        << "sampling is read-only: simulated results must be "
           "bit-identical with telemetry on or off";
}

/** p50/p99 of the e2e latency histogram after a 10 ms Rx run. */
std::pair<double, double>
e2eLatency(Hub& hub, core::ServerMode mode, const std::string& run)
{
    hub.setRun(run);
    core::TestbedConfig cfg;
    cfg.mode = mode;
    cfg.hub = &hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(10));
    hub.metrics().freeze();
    const Histogram* h = hub.metrics().findHistogram(
        "latency_e2e_ns", {{"dev", "octoNIC"}, {"run", run}});
    EXPECT_NE(h, nullptr);
    if (h == nullptr)
        return {0, 0};
    EXPECT_GT(h->count(), 100u);
    return {h->p50(), h->p99()};
}

TEST(Sampler, E2eLatencyRemoteExceedsIoctopus)
{
    Hub hub;
    const auto remote =
        e2eLatency(hub, core::ServerMode::Remote, "remote");
    const auto octo =
        e2eLatency(hub, core::ServerMode::Ioctopus, "ioctopus");
    // Windowed streams: the NUDMA preset moves fewer bytes through the
    // same socket window, so each byte waits longer end to end.
    EXPECT_GT(remote.first, octo.first)
        << "remote p50 must exceed ioctopus p50";
    EXPECT_GT(remote.second, octo.second)
        << "remote p99 must exceed ioctopus p99";
}

} // namespace
} // namespace octo::obs
