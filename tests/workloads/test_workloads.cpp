/**
 * @file
 * Tests for the workload reimplementations: netperf, pktgen, RR,
 * STREAM, PageRank, memcached/memslap, fio.
 */
#include <gtest/gtest.h>

#include <memory>

#include "core/testbed.hpp"
#include "nvme/driver.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/fio.hpp"
#include "workloads/kvstore.hpp"
#include "workloads/netperf.hpp"
#include "workloads/pktgen.hpp"

namespace octo::workloads {
namespace {

using core::ServerMode;
using core::Testbed;
using core::TestbedConfig;
using sim::fromMs;

TEST(Netperf, RxStreamDeliversContinuously)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Local;
    Testbed tb(cfg);
    auto st = tb.serverThread(0, 0);
    auto ct = tb.clientThread(0);
    NetperfStream s(tb, st, ct, 64 << 10, StreamDir::ServerRx);
    s.start();
    tb.runFor(fromMs(10));
    const auto b1 = s.bytesDelivered();
    EXPECT_GT(b1, 10u << 20);
    tb.runFor(fromMs(10));
    EXPECT_GT(s.bytesDelivered(), b1 + (10u << 20));
}

TEST(Netperf, TxStreamSymmetricApi)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Local;
    Testbed tb(cfg);
    auto st = tb.serverThread(0, 0);
    auto ct = tb.clientThread(0);
    NetperfStream s(tb, st, ct, 64 << 10, StreamDir::ServerTx);
    s.start();
    tb.runFor(fromMs(10));
    EXPECT_GT(s.bytesDelivered(), 20u << 20);
    EXPECT_EQ(s.bytesDelivered(), s.clientSocket().bytesDelivered);
}

TEST(Netperf, RrMeasuresRoundTrips)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Local;
    cfg.rxCoalesce = 0;
    Testbed tb(cfg);
    auto st = tb.serverThread(0, 0);
    auto ct = tb.clientThread(0);
    RrWorkload rr(tb, st, ct, 64);
    rr.start();
    tb.runFor(fromMs(20));
    EXPECT_GT(rr.transactions(), 100u);
    EXPECT_GT(rr.latencyUs().mean(), 5.0);
    EXPECT_LT(rr.latencyUs().mean(), 100.0);
    // Percentiles are ordered.
    EXPECT_LE(rr.latencyUs().percentile(50),
              rr.latencyUs().percentile(99));
}

TEST(Netperf, RrResetStatsClears)
{
    TestbedConfig cfg;
    cfg.rxCoalesce = 0;
    Testbed tb(cfg);
    auto st = tb.serverThread(1, 0);
    auto ct = tb.clientThread(0);
    RrWorkload rr(tb, st, ct, 64);
    rr.start();
    tb.runFor(fromMs(5));
    EXPECT_GT(rr.transactions(), 0u);
    rr.resetStats();
    EXPECT_EQ(rr.transactions(), 0u);
    EXPECT_EQ(rr.latencyUs().count(), 0u);
}

TEST(Pktgen, LocalRateNearPaperCalibration)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Local;
    Testbed tb(cfg);
    auto t = tb.serverThread(0, 0);
    Pktgen gen(tb, t, 64);
    gen.start();
    tb.runFor(fromMs(20));
    const double mpps = gen.packetsSent() / 0.020 / 1e6;
    EXPECT_NEAR(mpps, 4.1, 0.5); // paper: 4.1 MPPS
}

TEST(Pktgen, RemoteSlowerByCompletionMiss)
{
    auto rate = [](ServerMode mode) {
        TestbedConfig cfg;
        cfg.mode = mode;
        Testbed tb(cfg);
        auto t = tb.serverThread(tb.workNode(), 0);
        Pktgen gen(tb, t, 64);
        gen.start();
        tb.runFor(fromMs(20));
        return gen.packetsSent() / 0.020 / 1e6;
    };
    const double local = rate(ServerMode::Local);
    const double remote = rate(ServerMode::Remote);
    EXPECT_GT(local / remote, 1.2);
    EXPECT_LT(local / remote, 1.45); // paper band 1.3-1.39
}

TEST(Stream, MovesBytesAndLoadsInterconnect)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    StreamAntagonist s(m, m.coreOn(0, 0), 1, topo::MemDir::Write);
    s.start();
    sim.runUntil(fromMs(5));
    EXPECT_GT(s.bytesMoved(), 1u << 20);
    // The link counter may lead bytesMoved by the chunks still in
    // flight.
    EXPECT_NEAR(static_cast<double>(m.qpi(0, 1).totalBytes()),
                static_cast<double>(s.bytesMoved()),
                2.0 * StreamAntagonist::kChunk);
}

TEST(Stream, RegistersLlcPressure)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    const auto before = m.llc(0).pressure();
    {
        StreamAntagonist s(m, m.coreOn(0, 0), 1, topo::MemDir::Read);
        EXPECT_GT(m.llc(0).pressure(), before);
    }
    EXPECT_EQ(m.llc(0).pressure(), before);
}

TEST(Stream, MixedModeLoadsBothDirections)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    StreamAntagonist s(m, m.coreOn(1, 0), 0, topo::MemDir::Read);
    s.setMixed(true);
    s.start();
    sim.runUntil(fromMs(5));
    EXPECT_GT(m.qpi(0, 1).totalBytes(), 0u); // reads
    EXPECT_GT(m.qpi(1, 0).totalBytes(), 0u); // writes
}

TEST(PageRank, CompletesItsQuota)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    std::vector<topo::Core*> cores;
    for (int n = 0; n < 2; ++n)
        for (int i = 0; i < 4; ++i)
            cores.push_back(&m.coreOn(n, i));
    PageRank pr(m, cores, 32 << 20);
    pr.start();
    sim.run(sim::fromSec(2));
    EXPECT_TRUE(pr.done());
    EXPECT_GT(pr.elapsed(), 0);
    // 8 threads x 32 MB, ~30% remote -> both DRAMs and the QPI loaded.
    EXPECT_GT(m.qpiBytesTotal(), 40u << 20);
}

TEST(PageRank, MoreAntagonistsSlowerFinish)
{
    auto run = [](int n_streams) {
        sim::Simulator sim;
        topo::Calibration cal;
        topo::Machine m(sim, cal);
        std::vector<topo::Core*> cores;
        for (int i = 0; i < 4; ++i)
            cores.push_back(&m.coreOn(0, i));
        std::vector<std::unique_ptr<StreamAntagonist>> ants;
        for (int i = 0; i < n_streams; ++i) {
            ants.push_back(std::make_unique<StreamAntagonist>(
                m, m.coreOn(1, i), 0, topo::MemDir::Write));
            ants.back()->start();
        }
        PageRank pr(m, cores, 32 << 20);
        pr.start();
        sim.run(sim::fromSec(5));
        return pr.elapsed();
    };
    EXPECT_GT(run(8), run(0));
}

TEST(Kv, TransactionsFlowAndLatencyIsSane)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    Testbed tb(cfg);
    KvConfig kv;
    kv.setRatio = 0.5;
    kv.connections = 4;
    kv.serverThreads = 2;
    KvWorkload wl(tb, 1, kv);
    wl.start();
    tb.runFor(fromMs(50));
    EXPECT_GT(wl.transactions(), 20u);
    EXPECT_GT(wl.latencyUs().mean(), 100.0);
}

TEST(Kv, PureGetAndPureSetBothProgress)
{
    for (double ratio : {0.0, 1.0}) {
        TestbedConfig cfg;
        Testbed tb(cfg);
        KvConfig kv;
        kv.setRatio = ratio;
        kv.connections = 4;
        kv.serverThreads = 2;
        KvWorkload wl(tb, 1, kv);
        wl.start();
        tb.runFor(fromMs(50));
        EXPECT_GT(wl.transactions(), 10u) << "set ratio " << ratio;
    }
}

TEST(Nvme, ReadLatencyIncludesMediaAndDma)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    nvme::NvmeDevice ssd(m, 1, 4, "ssd");
    nvme::NvmeDriver drv(ssd);
    drv.addSq(0);
    sim::Tick lat = 0;
    auto t = sim::spawn([&]() -> sim::Task<> {
        lat = co_await drv.read(128 << 10, 0, 0);
    });
    sim.run();
    EXPECT_GT(lat, cal.ssdLatency);
    EXPECT_EQ(ssd.completions(), 1u);
    EXPECT_EQ(m.qpi(1, 0).totalBytes(), (128u << 10) + 64);
    EXPECT_TRUE(t.done());
}

TEST(Nvme, OctoSteerUsesLocalPort)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    nvme::NvmeDevice ssd(m, 1, 4, "ssd");
    ssd.addSecondPort(0, 4);
    nvme::NvmeDriver drv(ssd);
    drv.addSq(0); // homed on the node-0 port
    auto t = sim::spawn([&]() -> sim::Task<> {
        co_await drv.read(128 << 10, 0, 0);
    });
    sim.run();
    // Steered through the node-0 port: no interconnect crossing.
    EXPECT_EQ(m.qpiBytesTotal(), 0u);
    EXPECT_TRUE(t.done());
}

TEST(Nvme, PortForFallsBackToPort0)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    nvme::NvmeDevice ssd(m, 1, 4, "ssd");
    EXPECT_EQ(&ssd.portFor(0), &ssd.port(0));
    ssd.addSecondPort(0, 4);
    EXPECT_EQ(&ssd.portFor(0), &ssd.port(1));
    EXPECT_EQ(&ssd.portFor(1), &ssd.port(0));
}

TEST(Fio, SustainsQueueDepthThroughput)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal);
    nvme::NvmeDevice ssd(m, 1, 4, "ssd");
    nvme::NvmeDriver drv(ssd);
    drv.addSq(0);
    FioConfig fc;
    FioThread fio(os::ThreadCtx(m, m.coreOn(0, 0)), {&drv}, fc);
    fio.start();
    sim.runUntil(fromMs(20));
    // One SSD sustains ~media rate: 25 Gb/s x 20 ms ~= 62 MB.
    EXPECT_GT(fio.bytesRead(), 40u << 20);
    EXPECT_LT(fio.bytesRead(), 90u << 20);
}

} // namespace
} // namespace octo::workloads
