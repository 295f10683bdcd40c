/**
 * @file
 * §2.5 baselines: "multiple devices do not solve NUDMA". A dynamic
 * workload — flows whose consuming threads keep moving, as under a
 * consolidating scheduler — run against every alternative the paper
 * discusses:
 *
 *  - two independent NICs (sockets pinned to a device for life),
 *  - switch-side bonding/EtherChannel (flows hashed to member links
 *    with no thread awareness),
 *  - a single remote NIC,
 *  - the octoNIC.
 *
 * Paper claim: only IOctopus keeps every flow NUDMA-free once threads
 * move; the alternatives strand roughly half the flows on a remote PF.
 */
#include <memory>

#include "common.hpp"
#include "sim/rng.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct BaselineResult
{
    double gbps;
    double qpiGbps;
    double remotePfShare; ///< Fraction of Rx DMA through a remote PF.
};

BaselineResult
runDynamic(ServerMode mode, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg, core::modeName(mode));
    Testbed tb(cfg);

    // Eight Rx flows; each consumer thread re-pins to a random core
    // every few milliseconds (scheduler churn).
    constexpr int kFlows = 8;
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    for (int i = 0; i < kFlows; ++i) {
        auto server_t = tb.serverThread(i % 2, i / 2);
        auto client_t = tb.clientThread(i % 14);
        streams.push_back(std::make_unique<workloads::NetperfStream>(
            tb, server_t, client_t, 16 << 10,
            workloads::StreamDir::ServerRx));
        streams.back()->start();
    }

    auto churner = [&]() -> sim::Task<> {
        sim::Rng rng(42);
        for (;;) {
            co_await sim::delay(tb.sim(), sim::fromMs(4));
            auto& victim =
                *streams[rng.below(streams.size())];
            const int node = static_cast<int>(rng.below(2));
            const int core = static_cast<int>(rng.below(
                tb.server().cal().coresPerNode));
            co_await victim.pair().serverCtx.migrate(
                tb.server().coreOn(node, core));
        }
    };
    auto churn = sim::spawn(churner);
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kWarmup);
    std::uint64_t b0 = 0;
    for (auto& s : streams)
        b0 += s->bytesDelivered();
    const std::uint64_t q0 = tb.server().qpiBytesTotal();
    // Per-PF Rx split at window start: attribute by steering at the end.
    tb.runFor(sim::fromMs(60));
    std::uint64_t b1 = 0;
    for (auto& s : streams)
        b1 += s->bytesDelivered();

    // How many flows currently land on a PF remote to their consumer?
    int remote_flows = 0;
    for (auto& s : streams) {
        const int qid =
            tb.serverNic().classify(s->serverSocket().rxFlow);
        const auto& q = tb.serverNic().queue(qid);
        const int consumer_node = s->pair().serverCtx.node();
        if (q.pf->node() != consumer_node)
            ++remote_flows;
    }

    BaselineResult res{
        sim::toGbps(b1 - b0, sim::fromMs(60)),
        sim::toGbps(tb.server().qpiBytesTotal() - q0, sim::fromMs(60)),
        static_cast<double>(remote_flows) / kFlows};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "s25");

    printHeader("§2.5 baselines — dynamic (migrating) flows",
                "config    tput[Gb/s]  qpi[Gb/s]  remote-PF flows");
    for (auto mode :
         {ServerMode::Ioctopus, ServerMode::Bonded, ServerMode::TwoNics,
          ServerMode::Remote}) {
        const auto r = runDynamic(mode, &obs);
        std::printf("%-9s %10.2f %10.2f %14.0f%%\n", core::modeName(mode),
                    r.gbps, r.qpiGbps, 100.0 * r.remotePfShare);
    }
    std::printf("\nShape check: only the octoNIC converges every flow "
                "back to a consumer-local PF\nafter migrations "
                "(remote-PF flows -> 0%%, qpi -> ~0); bonding and "
                "two-NICs strand\nroughly half the flows remotely, as "
                "§2.5 argues.\n");
    obs.finish();
    return 0;
}
