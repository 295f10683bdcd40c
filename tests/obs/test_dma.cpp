/**
 * @file
 * Tests for DMA-locality accounting: the DmaAccountant row mechanics,
 * the exported bytes of a churning sketch, the per-preset locality
 * split of a real testbed run, and the zero-overhead-when-off
 * guarantee (observability must not change the simulation's results).
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "obs/dma.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"
#include "workloads/netperf.hpp"

namespace octo::obs {
namespace {

/** A one-character flow label. */
std::string
charLabel(char c)
{
    return std::string(1, c);
}

/** Flow label "f<key>". */
std::string
fLabel(std::uint64_t key)
{
    return "f" + std::to_string(key);
}

/** Flow label "q<key>". */
std::string
qLabel(std::uint64_t key)
{
    return "q" + std::to_string(key);
}

/** Calls of the counting formatters below. */
int labeled = 0;

std::string
countedChar(char c)
{
    ++labeled;
    return charLabel(c);
}

std::string
countedKey(std::uint64_t key)
{
    ++labeled;
    return fLabel(key);
}

TEST(DmaAccountant, InertWithoutHub)
{
    DmaAccountant acc(nullptr, "nic0");
    EXPECT_FALSE(acc.active());
    labeled = 0;
    acc.record<countedChar>(1, 'f', 4096, true, true);
    EXPECT_EQ(acc.flowCount(), 0u);
    EXPECT_EQ(labeled, 0) << "label formatting must stay off";
}

TEST(DmaAccountant, RowsSplitLocalityPerFlow)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0");
    ASSERT_TRUE(acc.active());
    labeled = 0;
    acc.record<countedChar>(1, 'a', 1000, true, true);
    acc.record<countedChar>(1, 'a', 500, false, false);
    acc.record<charLabel>(2, 'b', 64, false, true);

    EXPECT_EQ(acc.flowCount(), 2u);

    MetricRegistry& reg = hub.metrics();
    const Labels a = {{"dev", "nic0"}, {"flow", "a"}};
    EXPECT_EQ(reg.findCounter("flow_dma_local_bytes", a)->value(), 1000u);
    EXPECT_EQ(reg.findCounter("flow_dma_remote_bytes", a)->value(), 500u);
    EXPECT_EQ(reg.findCounter("flow_interconnect_crossings", a)->value(),
              1u);
    EXPECT_EQ(reg.findCounter("flow_ddio_hits", a)->value(), 1u);
    EXPECT_EQ(reg.findCounter("flow_ddio_misses", a)->value(), 1u);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes",
                              {{"dev", "nic0"}}),
              564u);
    EXPECT_EQ(labeled, 1) << "label formatted once, on first read";
}

TEST(DmaAccountant, LabelsFormatOnlyWhenRead)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0", 8);
    MetricRegistry& reg = hub.metrics();
    labeled = 0;
    sim::Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = rng.below(100);
        acc.record<countedKey>(key, key, 64 + rng.below(1400),
                               rng.chance(0.5), true);
    }
    ASSERT_GT(acc.evictions(), 0u) << "test must exercise churn";
    EXPECT_EQ(labeled, 0) << "recording must format no label";

    const std::string prom = reg.prometheusText();
    const int rows = static_cast<int>(acc.flowCount());
    EXPECT_EQ(labeled, rows) << "one format per resident row";
    EXPECT_EQ(reg.prometheusText(), prom);
    EXPECT_EQ(labeled, rows) << "a second export reuses the labels";

    // A fresh key recycles a cell whose label was read: the cell must
    // forget it and format the newcomer's.
    acc.record<countedKey>(1000, 1000, 64, true, true);
    ASSERT_NE(reg.findCounter("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "f1000"}}),
              nullptr);
    EXPECT_EQ(labeled, rows + 1);
}

std::string
csvText(const MetricRegistry& reg)
{
    char* buf = nullptr;
    std::size_t len = 0;
    std::FILE* mem = open_memstream(&buf, &len);
    if (mem == nullptr)
        return {};
    reg.writeCsv(mem);
    std::fclose(mem);
    std::string s(buf, len);
    std::free(buf);
    return s;
}

std::string
goldenText(const std::string& name)
{
    std::ifstream in(std::string(OCTO_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

TEST(DmaAccountant, ExportMatchesParent)
{
    // A churning K=4 sketch and an eviction-free K=8 one, exported
    // with stored instruments whose names, kinds and labels sort
    // between the flow_* rows. The golden files were written by the
    // registry-row accountant this design replaced; the export must
    // not move by a byte.
    Hub hub;
    hub.setRun("churn");
    MetricRegistry& reg = hub.metrics();
    reg.gauge("flow_dma_queue_depth", {{"dev", "nic0"}}).set(3.5);
    Histogram& lat =
        reg.histogram("flow_ddio_latency_ns", {{"dev", "nic0"}});
    for (double v : {0.0, 40.0, 90.0, 300.0, 1200.0})
        lat.record(v);
    reg.counter("flow_dma_local_bytes", {{"dev", "nic00"}}).add(7);

    auto churn = std::make_unique<DmaAccountant>(&hub, "nic0", 4);
    auto quiet = std::make_unique<DmaAccountant>(&hub, "nic1", 8);
    sim::Rng rng(11);
    std::uint64_t hot_local = 0;
    for (int i = 0; i < 3000; ++i) {
        // Key 0 carries every other record at 64 KiB, so it stays
        // resident; the rest churn through the three other slots.
        const std::uint64_t key = i % 2 == 0 ? 0 : 1 + rng.below(39);
        const std::uint64_t bytes =
            key == 0 ? 65536 : 64 + rng.below(1400);
        const bool local = rng.chance(0.6);
        churn->record<fLabel>(key, key, bytes, local, rng.chance(0.5));
        if (key == 0 && local)
            hot_local += bytes;
        if (i % 50 == 0) {
            const std::uint64_t q = (i / 50) % 5;
            quiet->record<qLabel>(q, q, bytes, !local, true);
        }
    }
    ASSERT_GT(churn->evictions(), 0u) << "test must exercise churn";
    ASSERT_EQ(quiet->evictions(), 0u);

    const std::string prom = reg.prometheusText();
    const std::string csv = csvText(reg);
    EXPECT_EQ(prom, goldenText("dma_accountant.prom"));
    EXPECT_EQ(csv, goldenText("dma_accountant.csv"));

    // Three stored instruments, four meta instruments per accountant,
    // five counters per resident flow and per ~other row.
    EXPECT_EQ(reg.size(),
              3 + 2 * 4 +
                  5 * (churn->flowCount() + 1 + quiet->flowCount()));
    const Counter* hot = reg.findCounter(
        "flow_dma_local_bytes",
        {{"run", "churn"}, {"flow", "f0"}, {"dev", "nic0"}});
    ASSERT_NE(hot, nullptr);
    EXPECT_EQ(hot->value(), hot_local);

    // Frozen, the rows outlive their accountants unchanged.
    reg.freeze();
    churn.reset();
    quiet.reset();
    EXPECT_EQ(reg.prometheusText(), prom);
    EXPECT_EQ(csvText(reg), csv);
}

struct LocalitySplit
{
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t crossings = 0;
    std::uint64_t flowLocal = 0;
    std::uint64_t flowRemote = 0;
    std::uint64_t bytesDelivered = 0;
};

/** 2 ms Rx run of @p mode; locality split of the server NIC. */
LocalitySplit
runPreset(core::ServerMode mode, Hub* hub)
{
    core::TestbedConfig cfg;
    cfg.mode = mode;
    cfg.hub = hub;
    core::Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::NetperfStream stream(tb, server_t, client_t, 16384,
                                    workloads::StreamDir::ServerRx);
    stream.start();
    tb.runFor(sim::fromMs(2));

    LocalitySplit s;
    s.bytesDelivered = stream.bytesDelivered();
    if (hub != nullptr) {
        MetricRegistry& reg = hub->metrics();
        const Labels nic = {{"dev", "octoNIC"}};
        s.local = reg.sumCounters("dma_local_bytes", nic);
        s.remote = reg.sumCounters("dma_remote_bytes", nic);
        s.crossings = reg.sumCounters("interconnect_crossings", nic);
        s.flowLocal = reg.sumCounters("flow_dma_local_bytes", nic);
        s.flowRemote = reg.sumCounters("flow_dma_remote_bytes", nic);
        reg.freeze();
    }
    return s;
}

TEST(DmaLocality, PresetsSeparateCleanly)
{
    Hub local_hub, remote_hub, ioct_hub;
    const LocalitySplit local =
        runPreset(core::ServerMode::Local, &local_hub);
    const LocalitySplit remote =
        runPreset(core::ServerMode::Remote, &remote_hub);
    const LocalitySplit ioct =
        runPreset(core::ServerMode::Ioctopus, &ioct_hub);

    // Local: workload on the NIC's socket — no remote DMA at all.
    EXPECT_GT(local.local, 0u);
    EXPECT_EQ(local.remote, 0u);
    EXPECT_EQ(local.crossings, 0u);

    // Remote: payload DMA targets the far socket; virtually all bytes
    // cross the interconnect (the residue is doorbell/descriptor-side
    // traffic on node 0).
    EXPECT_GT(remote.remote, 0u);
    EXPECT_GT(remote.crossings, 0u);
    EXPECT_GT(remote.remote, remote.local * 9)
        << "remote preset must be >90% remote bytes";

    // Ioctopus: the paper's thesis — same far-socket workload, zero
    // NUDMA.
    EXPECT_GT(ioct.local, 0u);
    EXPECT_EQ(ioct.remote, 0u);
    EXPECT_EQ(ioct.crossings, 0u);

    // Flow-grain attribution mirrors the PF-grain split's direction.
    EXPECT_EQ(local.flowRemote, 0u);
    EXPECT_EQ(ioct.flowRemote, 0u);
    EXPECT_GT(remote.flowRemote, 0u);
    EXPECT_GT(ioct.flowLocal, 0u);
}

TEST(DmaLocality, ObservabilityDoesNotPerturbResults)
{
    // Same run three ways: no hub, metrics only, metrics + full
    // tracing. Simulated outcomes must be bit-identical.
    Hub metrics_hub;
    Hub traced_hub;
    traced_hub.tracer().enable(kCatAll);

    const LocalitySplit off =
        runPreset(core::ServerMode::Ioctopus, nullptr);
    const LocalitySplit on =
        runPreset(core::ServerMode::Ioctopus, &metrics_hub);
    const LocalitySplit traced =
        runPreset(core::ServerMode::Ioctopus, &traced_hub);

    EXPECT_GT(off.bytesDelivered, 0u);
    EXPECT_EQ(off.bytesDelivered, on.bytesDelivered);
    EXPECT_EQ(off.bytesDelivered, traced.bytesDelivered);
    EXPECT_GT(traced_hub.tracer().eventCount(), 0u);
}

} // namespace
} // namespace octo::obs
