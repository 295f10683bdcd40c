/**
 * @file
 * Tests for the bounded attribution substrate: Space-Saving sketch
 * invariants under a skewed key stream, deterministic eviction, the
 * DmaAccountant's ~other conservation law, and the guarantee that
 * bounding attribution does not perturb simulated results.
 */
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "obs/dma.hpp"
#include "obs/flow_sketch.hpp"
#include "obs/hub.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace octo::obs {
namespace {

struct NoPayload
{
};

using Sketch = SpaceSaving<NoPayload>;

/** Flow label of key @p key. */
std::string
fLabel(std::uint64_t key)
{
    return "f" + std::to_string(key);
}

/** A one-character flow label. */
std::string
charLabel(char c)
{
    return std::string(1, c);
}

/** Deterministic Zipf-ish key stream: key j drawn with probability
 *  proportional to 1/(j+1), over @p universe keys. */
std::vector<std::uint64_t>
zipfStream(std::size_t universe, std::size_t n, std::uint64_t seed)
{
    std::vector<double> cdf(universe);
    double acc = 0.0;
    for (std::size_t j = 0; j < universe; ++j) {
        acc += 1.0 / static_cast<double>(j + 1);
        cdf[j] = acc;
    }
    sim::Rng rng(seed);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform() * acc;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        keys.push_back(static_cast<std::uint64_t>(
            it - cdf.begin()));
    }
    return keys;
}

TEST(SpaceSaving, ErrorBoundsUnderZipfianStream)
{
    constexpr std::size_t kK = 32;
    Sketch sk(kK);
    std::map<std::uint64_t, std::uint64_t> truth;
    Sketch::Outcome out;
    std::uint64_t evicted;
    for (std::uint64_t key : zipfStream(4096, 200000, 0xBADC0DE)) {
        sk.update(key, 1, out, evicted);
        ++truth[key];
    }

    ASSERT_EQ(sk.size(), kK);
    const std::uint64_t min_w = sk.minWeight();
    for (const auto& e : sk.entries()) {
        const std::uint64_t t = truth[e.key];
        // Classic Space-Saving bounds: never undercount, and the
        // inherited error brackets the overcount.
        EXPECT_GE(e.weight, t) << "key " << e.key;
        EXPECT_LE(e.weight - e.error, t) << "key " << e.key;
    }
    // Residency guarantee: any key truly heavier than the minimum
    // resident weight must be resident.
    for (const auto& [key, count] : truth) {
        if (count > min_w) {
            EXPECT_NE(sk.find(key), nullptr)
                << "heavy hitter " << key << " (count " << count
                << " > min weight " << min_w << ") missing";
        }
    }
    // Weight conservation across arbitrary churn.
    EXPECT_EQ(sk.totalWeight(), 200000u);
}

TEST(SpaceSaving, EvictionIsDeterministic)
{
    const auto keys = zipfStream(512, 50000, 42);
    auto run = [&keys] {
        Sketch sk(16);
        Sketch::Outcome out;
        std::uint64_t ev;
        std::vector<std::uint64_t> evicted_keys;
        for (std::uint64_t key : keys) {
            sk.update(key, 1, out, ev);
            if (out == Sketch::Outcome::Replaced)
                evicted_keys.push_back(ev);
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> resident;
        for (const auto& e : sk.entries())
            resident.emplace_back(e.key, e.weight);
        return std::make_pair(evicted_keys, resident);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first) << "eviction sequence must be "
                                   "identical across identical runs";
    EXPECT_EQ(a.second, b.second);
    EXPECT_FALSE(a.first.empty());
}

/** The sketch as its definition reads: a linear scan picks the lowest
 *  slot among the minimum weights. The heap must evict alike. */
class LinearScanSketch
{
  public:
    explicit LinearScanSketch(std::size_t k) : k_(k) {}

    /** Count @p w of @p key; the displaced key on a replacement. */
    std::optional<std::uint64_t>
    update(std::uint64_t key, std::uint64_t w)
    {
        for (Sketch::Entry& e : slots_) {
            if (e.key == key) {
                e.weight += w;
                return std::nullopt;
            }
        }
        if (slots_.size() < k_) {
            slots_.push_back(Sketch::Entry{key, w, 0});
            return std::nullopt;
        }
        std::size_t m = 0;
        for (std::size_t i = 1; i < slots_.size(); ++i) {
            if (slots_[i].weight < slots_[m].weight)
                m = i;
        }
        const std::uint64_t evicted = slots_[m].key;
        const std::uint64_t weight = slots_[m].weight;
        slots_[m] = Sketch::Entry{key, weight + w, weight};
        return evicted;
    }

    const std::vector<Sketch::Entry>& entries() const { return slots_; }

  private:
    std::size_t k_;
    std::vector<Sketch::Entry> slots_;
};

TEST(SpaceSaving, EvictionMatchesLinearScan)
{
    // The NIC's two record sizes (a 64 B CQE, a 1500 B payload), over
    // a universe a few times K, plus runs of fresh 64 B keys: every
    // fresh admission lands on the same minimum + 64, so the minimum
    // is shared by many slots and the slot-index tie-break decides.
    for (std::size_t k : {1, 4, 64}) {
        Sketch sk(k);
        LinearScanSketch ref(k);
        sim::Rng rng(0x5CA7 + k);
        std::uint64_t fresh = 1'000'000;
        std::size_t replaced = 0;
        for (int i = 0; i < 40000; ++i) {
            std::uint64_t key;
            std::uint64_t w;
            if (i % 400 < 100) {
                key = fresh++;
                w = 64;
            } else {
                key = rng.below(3 * k + 2);
                w = rng.chance(0.5) ? 64 : 1500;
            }
            Sketch::Outcome out;
            std::uint64_t evicted = 0;
            sk.update(key, w, out, evicted);
            const std::optional<std::uint64_t> want = ref.update(key, w);
            ASSERT_EQ(out == Sketch::Outcome::Replaced, want.has_value())
                << "K=" << k << " record " << i;
            if (want) {
                ASSERT_EQ(evicted, *want) << "K=" << k << " record " << i;
                ++replaced;
            }
        }
        EXPECT_GT(replaced, 1000u) << "K=" << k;
        EXPECT_EQ(sk.entries(), ref.entries()) << "K=" << k;
        std::uint64_t min_w = ref.entries()[0].weight;
        for (const Sketch::Entry& e : ref.entries())
            min_w = std::min(min_w, e.weight);
        EXPECT_EQ(sk.minWeight(), min_w) << "K=" << k;
    }
}

TEST(DmaAccountant, OtherRowConservesBytesUnderChurn)
{
    Hub hub;
    constexpr int kK = 4;
    DmaAccountant acc(&hub, "nic0", kK);
    ASSERT_EQ(acc.topK(), kK);

    // Far more live keys than capacity; exact reference totals kept
    // alongside.
    std::uint64_t local_ref = 0, remote_ref = 0;
    sim::Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t key = rng.below(64);
        const std::uint64_t bytes = 64 + rng.below(1400);
        const bool local = rng.chance(0.5);
        acc.record<fLabel>(key, key, bytes, local, local);
        (local ? local_ref : remote_ref) += bytes;
    }

    EXPECT_LE(acc.flowCount(), static_cast<std::size_t>(kK));
    EXPECT_GT(acc.evictions(), 0u) << "test must exercise churn";

    MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "nic0"}};
    // Conservation: labeled rows + ~other account for every byte.
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", dev), local_ref);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes", dev),
              remote_ref);

    // Registry holds at most K labeled rows plus ~other.
    int rows = 0;
    reg.forEach([&](const std::string& name, const Labels&,
                    MetricKind) {
        if (name == "flow_dma_local_bytes")
            ++rows;
    });
    EXPECT_LE(rows, kK + 1);
    EXPECT_GT(reg.sumCounters("flow_dma_local_bytes",
                              {{"dev", "nic0"}, {"flow", "~other"}}) +
                  reg.sumCounters("flow_dma_remote_bytes",
                                  {{"dev", "nic0"},
                                   {"flow", "~other"}}),
              0u)
        << "churn must have folded bytes into ~other";
}

TEST(DmaAccountant, MetaInstrumentsTrackSketchState)
{
    Hub hub;
    DmaAccountant acc(&hub, "nic0", 2);
    acc.record<charLabel>(1, 'a', 10, true, true);
    acc.record<charLabel>(2, 'b', 10, true, true);
    acc.record<charLabel>(3, 'c', 10, true, true);

    MetricRegistry& reg = hub.metrics();
    const Labels dev = {{"dev", "nic0"}};
    EXPECT_EQ(reg.findGauge("flow_rows", dev)->value(), 2.0);
    EXPECT_EQ(reg.findGauge("flow_topk", dev)->value(), 2.0);
    EXPECT_EQ(reg.findCounter("flow_evictions_total", dev)->value(),
              1u);
    EXPECT_EQ(reg.findCounter("obs_attr_records_total", dev)->value(),
              3u);
    EXPECT_EQ(acc.selfRecords(), 3u);
}

constexpr int kFlows = 256;

/** Closed-loop raw UDP sender cycling over kFlows distinct flows. */
sim::Task<>
flowCycler(core::Testbed& tb, os::ThreadCtx t, sim::Semaphore& inflight)
{
    nic::FiveTuple f;
    f.srcIp = core::Testbed::kClientIp;
    f.dstIp = core::Testbed::kServerIp;
    f.dstPort = 5001;
    f.proto = nic::Proto::Udp;
    for (int i = 0;; i = (i + 1) % kFlows) {
        f.srcPort = static_cast<std::uint16_t>(1000 + i);
        co_await inflight.acquire();
        co_await tb.clientStack().rawPost(t, f, 1024, inflight);
    }
}

/** 2 ms of the remote preset carrying kFlows UDP flows, more than the
 *  default K, so the server NIC's sketch churns. Returns the frames
 *  the server NIC received. */
std::uint64_t
runManyFlows(Hub* hub)
{
    core::TestbedConfig cfg;
    cfg.mode = core::ServerMode::Remote;
    cfg.hub = hub;
    core::Testbed tb(cfg);
    sim::Semaphore inflight(tb.sim(), 64);
    sim::Task<> sender = flowCycler(tb, tb.clientThread(0), inflight);
    tb.runFor(sim::fromMs(2));

    nic::NicDevice& dev = tb.serverNic();
    std::uint64_t frames = 0;
    for (int q = 0; q < dev.queueCount(); ++q)
        frames += dev.queue(q).rxFrames.total();
    if (hub != nullptr) {
        EXPECT_GT(dev.flows().evictions(), 0u)
            << "test must exercise churn";
        hub->metrics().freeze();
    }
    return frames;
}

TEST(DmaAccountant, FlowRowsMatchPfRowsOnTestbed)
{
    // Conservation at system grain: with the default sketch churning,
    // the NIC's flow-grain byte rows (including ~other) must exactly
    // equal its PF-grain rows — and attribution must not perturb the
    // simulated run.
    Hub hub;
    const std::uint64_t frames = runManyFlows(&hub);

    MetricRegistry& reg = hub.metrics();
    const Labels nic = {{"dev", "octoNIC"}};
    const std::uint64_t local = reg.sumCounters("dma_local_bytes", nic);
    const std::uint64_t remote = reg.sumCounters("dma_remote_bytes", nic);
    EXPECT_GT(local, 0u);
    EXPECT_GT(remote, 0u);
    EXPECT_EQ(reg.sumCounters("flow_dma_local_bytes", nic), local);
    EXPECT_EQ(reg.sumCounters("flow_dma_remote_bytes", nic), remote);

    EXPECT_GT(frames, 0u);
    EXPECT_EQ(runManyFlows(nullptr), frames);
}

} // namespace
} // namespace octo::obs
