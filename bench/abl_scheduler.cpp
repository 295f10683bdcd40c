/**
 * @file
 * Ablation: freeing the scheduler from NUDMA (paper §3.4: "achieving
 * locality would allow the OS scheduler to disregard NUDMA
 * considerations in its scheduling decisions").
 *
 * Batch hogs occupy most of the NIC-local socket. Eight Rx flows start
 * there, and a load balancer manages their threads:
 *
 *  - standard NIC + NicLocal policy: flows stay NUDMA-free but fight
 *    the hogs for the few free local cores;
 *  - standard NIC + FreeBalance: the balancer escapes to the idle
 *    remote socket — and buys NUDMA with every byte;
 *  - octoNIC + FreeBalance: escapes *and* stays local, because
 *    IOctoRFS re-steers each flow to the PF of wherever it lands.
 */
#include <memory>

#include "common.hpp"
#include "os/scheduler.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct SchedResult
{
    double gbps;
    std::uint64_t migrations;
};

SchedResult
runSched(ServerMode mode, os::SchedPolicy policy,
         ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg,
             std::string(core::modeName(mode)) + "/" +
                 (policy == os::SchedPolicy::NicLocal ? "nic-local"
                                                      : "free"));
    Testbed tb(cfg);

    // Batch hogs on 10 of the 14 NIC-local cores.
    std::vector<sim::Task<>> hogs;
    auto hog = [&](int core) -> sim::Task<> {
        for (;;)
            co_await tb.server().coreOn(0, core).compute(
                sim::fromUs(200));
    };
    for (int c = 4; c < 14; ++c)
        hogs.push_back(hog(c));

    // Eight Rx flows starting on the contended local cores.
    constexpr int kFlows = 8;
    std::vector<std::unique_ptr<workloads::NetperfStream>> streams;
    for (int i = 0; i < kFlows; ++i) {
        auto server_t = tb.serverThread(0, i % 4);
        auto client_t = tb.clientThread(i % 14);
        streams.push_back(std::make_unique<workloads::NetperfStream>(
            tb, server_t, client_t, 1024,
            workloads::StreamDir::ServerRx));
        streams.back()->start();
    }

    os::LoadBalancer lb(tb.server(), policy, Testbed::kNicNode);
    for (auto& s : streams)
        lb.manage(s->pair().serverCtx);
    lb.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(sim::fromMs(20)); // let the balancer settle
    std::uint64_t b0 = 0;
    for (auto& s : streams)
        b0 += s->bytesDelivered();
    tb.runFor(sim::fromMs(40));
    std::uint64_t b1 = 0;
    for (auto& s : streams)
        b1 += s->bytesDelivered();
    SchedResult res{sim::toGbps(b1 - b0, sim::fromMs(40)),
                    lb.migrations()};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "abl_scheduler");

    printHeader("Ablation — scheduler policies under batch interference",
                "nic        policy        tput[Gb/s]  migrations");
    struct Row
    {
        ServerMode mode;
        os::SchedPolicy policy;
        const char* label;
    };
    const Row rows[] = {
        {ServerMode::Local, os::SchedPolicy::NicLocal,
         "standard   nic-local"},
        {ServerMode::Local, os::SchedPolicy::FreeBalance,
         "standard   free     "},
        {ServerMode::Ioctopus, os::SchedPolicy::FreeBalance,
         "octoNIC    free     "},
    };
    for (const Row& r : rows) {
        const auto res = runSched(r.mode, r.policy, &obs);
        std::printf("%-22s %10.2f %11llu\n", r.label, res.gbps,
                    static_cast<unsigned long long>(res.migrations));
    }
    std::printf("\nShape check: the free balancer beats nic-local "
                "pinning only when the NIC is an\noctoNIC — otherwise "
                "the escape to the idle socket pays NUDMA (§3.4).\n");
    obs.finish();
    return 0;
}
