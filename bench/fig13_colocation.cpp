/**
 * @file
 * Figure 13: co-location macro benchmark — a 16-thread PageRank victim
 * (8 threads per socket) shares the server with six netperf TCP Rx or
 * memcached instances per socket. Measures PageRank runtime and the
 * I/O workload's throughput, for ioct/local vs remote.
 *
 * Paper shape: PR runs ~12% slower when the co-located netperf is
 * remote (vs ioct/local), ~4% for memcached; netperf throughput is
 * comparable in both configurations while memcached's suffers when
 * sharing the QPI with PR.
 */
#include <memory>

#include "common.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/kvstore.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct ColocResult
{
    double prSeconds;
    double ioGbps;   ///< netperf aggregate throughput
    double ioKtps;   ///< memcached transactions
};

ColocResult
runColoc(ServerMode mode, bool use_memcached, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg,
             std::string(core::modeName(mode)) + "/" +
                 (use_memcached ? "memcached" : "netperf"));
    Testbed tb(cfg);

    // PageRank: 8 threads per socket on the high-numbered cores.
    std::vector<topo::Core*> pr_cores;
    for (int node = 0; node < 2; ++node) {
        for (int i = 6; i < 14; ++i)
            pr_cores.push_back(&tb.server().coreOn(node, i));
    }
    workloads::PageRank pr(tb.server(), pr_cores, 600ull << 20);

    // Six I/O instances per CPU on the remaining cores.
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    std::unique_ptr<workloads::KvWorkload> kv;
    if (use_memcached) {
        workloads::KvConfig kvc;
        kvc.setRatio = 0.1;
        kvc.connections = 12;
        kvc.serverThreads = 12; // one single-threaded instance per core
        kvc.serverCoreIds = {0, 1, 2, 3, 4, 5}; // PR owns cores 6-13
        kv = std::make_unique<workloads::KvWorkload>(tb, tb.workNode(),
                                                     kvc);
        kv->start();
    } else {
        for (int i = 0; i < 12; ++i) {
            auto server_t = tb.serverThread(tb.workNode(), i % 6);
            auto client_t = tb.clientThread(i % 14);
            streams.push_back(std::make_unique<workloads::NetperfStream>(
                tb, server_t, client_t, 64u << 10,
                workloads::StreamDir::ServerRx));
            streams.back()->start();
        }
    }

    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(sim::fromMs(5));
    const std::uint64_t io_b0 = [&] {
        std::uint64_t b = 0;
        for (auto& s : streams)
            b += s->bytesDelivered();
        return b;
    }();
    const std::uint64_t kv_t0 = kv ? kv->transactions() : 0;

    pr.start();
    const sim::Tick t0 = tb.sim().now();
    while (!pr.done() && tb.sim().now() - t0 < sim::fromSec(2))
        tb.runFor(sim::fromMs(10));
    const sim::Tick window = tb.sim().now() - t0;

    std::uint64_t io_b1 = 0;
    for (auto& s : streams)
        io_b1 += s->bytesDelivered();

    ColocResult r{};
    r.prSeconds = sim::toSec(pr.elapsed());
    r.ioGbps = sim::toGbps(io_b1 - io_b0, window);
    r.ioKtps =
        kv ? (kv->transactions() - kv_t0) / sim::toSec(window) / 1e3 : 0;
    if (obs != nullptr)
        obs->endRun();
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig13");

    printHeader("Fig. 13 — PageRank co-located with I/O workloads",
                "io-load    config    PR time[s]  netperf[Gb/s]  "
                "memcached[kT/s]");
    for (bool kv : {false, true}) {
        for (auto mode :
             {ServerMode::Ioctopus, ServerMode::Remote}) {
            // Observability records the netperf co-location, both
            // presets: membw_gbps and qpi_gbps tracks show PageRank
            // vs DMA traffic.
            const auto r = runColoc(mode, kv, kv ? nullptr : &obs);
            std::printf("%-10s %-9s %10.3f %14.2f %16.2f\n",
                        kv ? "memcached" : "netperf",
                        core::modeName(mode), r.prSeconds, r.ioGbps,
                        r.ioKtps);
        }
    }
    obs.finish();
    return 0;
}
