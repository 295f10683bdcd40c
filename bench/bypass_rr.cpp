/**
 * @file
 * Kernel-bypass request/response latency: a sockperf-style ping-pong
 * over the polled datapath, in the three `-poll` presets, against the
 * interrupt-stack TCP_RR baseline.
 *
 * The interrupt stack buries the NUDMA term under ~10 us of wakeups and
 * protocol work; busy-polling strips that away, leaving wire time plus
 * the descriptor reads. `remote-poll` pays a DRAM+QPI round trip per
 * CQE on the critical path — a large *relative* regression — while
 * `ioctopus-poll` keeps every descriptor behind the local PF and closes
 * the gap. Results also land in bypass_rr.csv for
 * tools/check_bypass.py to validate (remote-poll p99 must exceed
 * ioctopus-poll p99).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bypass/plane.hpp"
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint64_t kSizes[] = {64, 1024, 4096};
constexpr int kBurst = 32;
constexpr Tick kRrWarmup = sim::fromMs(2);
constexpr Tick kRrWindow = sim::fromMs(20);

struct RrResult
{
    double p50Us;
    double p99Us;
};

nic::FiveTuple
requestFlow()
{
    nic::FiveTuple f;
    f.srcIp = core::Testbed::kClientIp;
    f.dstIp = core::Testbed::kServerIp;
    f.srcPort = 8000;
    f.dstPort = 8001;
    f.proto = nic::Proto::Udp;
    return f;
}

/** Echo server: harvest a full request, answer with one message. */
sim::Task<>
echoLoop(bypass::PollPort& port, nic::FiveTuple resp_flow,
         std::uint64_t msg)
{
    std::vector<bypass::RxPacket> pkts(kBurst);
    for (;;) {
        const int n = co_await port.rxBurst(pkts.data(), kBurst);
        bool complete = false;
        for (int i = 0; i < n; ++i) {
            complete = complete || pkts[i].frame.lastOfMessage;
            port.freePacket(pkts[i]);
        }
        if (complete)
            co_await port.txMessage(resp_flow,
                                    static_cast<std::uint32_t>(msg),
                                    port.core().node(),
                                    mem::DataLoc::Llc, true, nullptr);
        co_await port.harvestTx(kBurst);
    }
}

/** Ping-pong client: send, busy-poll until the echo completes, sample
 *  the RTT. */
sim::Task<>
clientLoop(bypass::PollPort& port, nic::FiveTuple req_flow,
           std::uint64_t msg, sim::Distribution* lat)
{
    sim::Simulator& sim = port.core().sim();
    std::vector<bypass::RxPacket> pkts(kBurst);
    for (;;) {
        const Tick t0 = sim.now();
        co_await port.txMessage(req_flow,
                                static_cast<std::uint32_t>(msg),
                                port.core().node(), mem::DataLoc::Llc,
                                true, nullptr);
        bool done = false;
        while (!done) {
            const int n = co_await port.rxBurst(pkts.data(), kBurst);
            for (int i = 0; i < n; ++i) {
                done = done || pkts[i].frame.lastOfMessage;
                port.freePacket(pkts[i]);
            }
            co_await port.harvestTx(kBurst);
        }
        lat->sample(static_cast<double>(sim::toNs(sim.now() - t0)) /
                    1e3);
    }
}

RrResult
runBypassRr(ServerMode mode, std::uint64_t msg, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.bypass = true;
    cfg.bypassCfg.burst = kBurst;
    cfg.rxCoalesce = 0;
    obsBegin(obs, cfg, std::string(core::modeName(mode)) + "-poll");
    Testbed tb(cfg);

    const nic::FiveTuple req = requestFlow();
    const nic::FiveTuple resp = req.reversed();
    const int sport = tb.server().coreOn(tb.workNode(), 0).id();
    bypass::PollPort& server = tb.serverPoll()->port(sport);
    bypass::PollPort& client = tb.clientPoll()->port(0);
    tb.serverPoll()->steerFlow(req, sport);
    tb.clientPoll()->steerFlow(resp, 0);

    sim::Distribution lat;
    sim::Task<> srv = echoLoop(server, resp, msg);
    sim::Task<> cli = clientLoop(client, req, msg, &lat);
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kRrWarmup);
    lat.reset();
    tb.runFor(kRrWindow);
    RrResult res{lat.percentile(50), lat.percentile(99)};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

/** Interrupt-stack TCP_RR baseline, same placement. */
RrResult
runKernelRr(ServerMode mode, std::uint64_t msg)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.rxCoalesce = 0;
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    auto client_t = tb.clientThread(0);
    workloads::RrWorkload rr(tb, server_t, client_t, msg);
    rr.start();
    tb.runFor(kRrWarmup);
    rr.resetStats();
    tb.runFor(kRrWindow);
    return {rr.latencyUs().percentile(50),
            rr.latencyUs().percentile(99)};
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "bypass_rr");

    printHeader("Kernel-bypass RR — remote penalty with and without "
                "the kernel stack",
                "msg      kernel l/r [p99 us]   poll l/r/io [p99 us]"
                "      penalty krn  penalty poll  r-poll/io-poll");
    std::FILE* csv = std::fopen("bypass_rr.csv", "w");
    if (csv != nullptr)
        std::fprintf(csv, "preset,bytes,p50_us,p99_us\n");
    for (std::uint64_t msg : kSizes) {
        const auto kl = runKernelRr(ServerMode::Local, msg);
        const auto kr = runKernelRr(ServerMode::Remote, msg);
        // Observability records the three polled presets at 4 KiB.
        ObsSession* observed = msg == 4096 ? &obs : nullptr;
        const auto pl = runBypassRr(ServerMode::Local, msg, observed);
        const auto pr = runBypassRr(ServerMode::Remote, msg, observed);
        const auto pi = runBypassRr(ServerMode::Ioctopus, msg, observed);
        std::printf("%-8llu %8.2f /%7.2f %9.2f /%6.2f /%6.2f"
                    "   %10.3fx %12.3fx %14.3fx\n",
                    static_cast<unsigned long long>(msg), kl.p99Us,
                    kr.p99Us, pl.p99Us, pr.p99Us, pi.p99Us,
                    kr.p99Us / kl.p99Us, pr.p99Us / pl.p99Us,
                    pr.p99Us / pi.p99Us);
        if (csv != nullptr) {
            const struct
            {
                const char* name;
                RrResult r;
            } rows[] = {{"local-poll", pl},
                        {"remote-poll", pr},
                        {"ioctopus-poll", pi},
                        {"local", kl},
                        {"remote", kr}};
            for (const auto& row : rows)
                std::fprintf(csv, "%s,%llu,%.3f,%.3f\n", row.name,
                             static_cast<unsigned long long>(msg),
                             row.r.p50Us, row.r.p99Us);
        }
    }
    if (csv != nullptr) {
        std::fclose(csv);
        std::printf("# wrote bypass_rr.csv\n");
    }
    obs.finish();
    return 0;
}
