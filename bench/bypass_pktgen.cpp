/**
 * @file
 * Kernel-bypass pktgen: the Fig. 8 single-core packet-rate experiment
 * rerun on the polled datapath (`local-poll` / `remote-poll` /
 * `ioctopus-poll`), side by side with the interrupt-stack numbers.
 *
 * The question (PAPERS.md, gem5 kernel-bypass study): does NUDMA matter
 * once the kernel stack is gone? Bypass deletes the software term —
 * softirq, sockets, syscalls — so the per-packet cost collapses from
 * ~1.5 us to tens of ns, and what remains is dominated by the *memory*
 * term: the CQE/payload lines the device wrote. Locally DDIO turns
 * those into LLC hits; remotely each one is a DRAM+QPI round trip. The
 * remote penalty therefore *grows* relative to the interrupt stack,
 * and `ioctopus-poll` (PF-local rings) recovers the local rate.
 */
#include "bypass/plane.hpp"
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint32_t kSizes[] = {64, 256, 1024, 1500};
constexpr int kBurst = 32;
constexpr int kDepth = 256;

/** Fig. 8's pktgen on a polled preset — the same flow and in-flight
 *  depth, posted in bursts into a polled sink on the client. Returns
 *  the packet rate in MPPS. */
double
runBypassPktgen(ServerMode mode, std::uint32_t size, ObsSession* obs)
{
    TestbedConfig cfg = modeConfig(mode);
    cfg.bypass = true;
    cfg.bypassCfg.burst = kBurst;
    obsBegin(obs, cfg, std::string(core::modeName(mode)) + "-poll");
    Testbed tb(cfg);

    bypass::PollPort& tx =
        tb.serverPoll()->port(tb.server().coreOn(tb.workNode(), 0).id());
    bypass::PollPort& sink = tb.clientPoll()->port(0);
    tb.clientPoll()->steerFlow(pktgenFlow(), 0);

    sim::Semaphore inflight(tb.sim(), kDepth);
    sim::Task<> prod =
        burstProducer(tx, pktgenFlow(), size, kBurst, inflight);
    sim::Task<> sinkT = burstSink(sink, kBurst);
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kWarmup);
    const std::uint64_t p0 = tx.txFrames();
    const Tick t0 = tb.sim().now();
    tb.runFor(kWindow);
    const double mpps = (tx.txFrames() - p0) /
                        sim::toSec(tb.sim().now() - t0) / 1e6;
    if (obs != nullptr)
        obs->endRun();
    return mpps;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "bypass_pktgen");

    printHeader("Kernel-bypass pktgen — remote penalty with and "
                "without the kernel stack",
                "pkt      kernel l/r/io[MPPS]        poll l/r/io[MPPS]"
                "        penalty krn   penalty poll   io-poll/r-poll");
    for (std::uint32_t size : kSizes) {
        const auto kl = runPktgen(ServerMode::Local, size);
        const auto kr = runPktgen(ServerMode::Remote, size);
        const auto ki = runPktgen(ServerMode::Ioctopus, size);
        // Observability records the three polled presets at 64 B.
        ObsSession* observed = size == 64 ? &obs : nullptr;
        const auto pl = runBypassPktgen(ServerMode::Local, size, observed);
        const auto pr = runBypassPktgen(ServerMode::Remote, size, observed);
        const auto pi = runBypassPktgen(ServerMode::Ioctopus, size, observed);
        // "penalty" is local/remote packet rate: how much the remote
        // PF costs. Larger under poll = NUDMA matters *more* once the
        // software term is gone.
        std::printf("%-8u %6.2f /%6.2f /%6.2f   %7.2f /%6.2f /%6.2f"
                    "   %11.2fx %13.2fx %14.2fx\n",
                    size, kl.mpps, kr.mpps, ki.mpps, pl, pr, pi,
                    kl.mpps / kr.mpps, pl / pr, pi / pr);
    }
    obs.finish();
    return 0;
}
