/**
 * @file
 * Figure 9: netperf TCP_RR round-trip latency vs message size,
 * normalized to the no-NUDMA baseline.
 *
 * Configurations (as in the paper): ll — both server and client local
 * to their NICs; rr — both remote (NUDMA on the critical path both
 * ways); llnd — ll with DDIO disabled on both sides, isolating the QPI
 * crossing cost from the DDIO loss. Adaptive interrupt coalescing is
 * disabled for latency runs.
 *
 * Paper shape: rr adds 10-25% over ll; llnd sits between them (5-15%),
 * showing IOctopus also removes interconnect latency DDIO can't.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint64_t kSizes[] = {1,    64,   256,   1024, 4096,
                                16384, 65536};

enum class RrConfig
{
    Ll,   ///< Both sides local.
    Rr,   ///< Both sides remote.
    Llnd, ///< Both local, DDIO disabled everywhere.
};

const char*
rrName(RrConfig c)
{
    switch (c) {
      case RrConfig::Ll:
        return "ll";
      case RrConfig::Rr:
        return "rr";
      case RrConfig::Llnd:
        return "llnd";
    }
    return "?";
}

struct RrResult
{
    double meanUs;
    double p99Us;
};

RrResult
runRr(RrConfig rc, std::uint64_t msg, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode =
        rc == RrConfig::Rr ? ServerMode::Remote : ServerMode::Local;
    cfg.rxCoalesce = 0; // latency runs disable coalescing
    if (rc == RrConfig::Llnd) {
        cfg.serverDdio = false;
        cfg.clientDdio = false;
    }
    obsBegin(obs, cfg, rrName(rc));
    Testbed tb(cfg);
    auto server_t = tb.serverThread(tb.workNode(), 0);
    // "rr" places the client thread remote from the client NIC as well.
    auto client_t = tb.clientThread(0, rc == RrConfig::Rr ? 1 : 0);
    workloads::RrWorkload rr(tb, server_t, client_t, msg);
    rr.start();
    if (obs != nullptr)
        obs->startSampler(tb);
    tb.runFor(sim::fromMs(2)); // warmup
    rr.resetStats();
    tb.runFor(sim::fromMs(30));
    RrResult res{rr.latencyUs().mean(), rr.latencyUs().percentile(99)};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig09");

    printHeader("Fig. 9 — TCP_RR latency normalized to ll",
                "msg      ll[us]    rr[us]    llnd[us]   rr/ll   "
                "llnd/ll   rr/ll(p99)");
    for (std::uint64_t msg : kSizes) {
        // Observability records the three configs at 4 KiB, with the
        // e2e latency spans on the critical request/response path.
        ObsSession* observed = msg == 4096 ? &obs : nullptr;
        const RrResult ll = runRr(RrConfig::Ll, msg, observed);
        const RrResult rrv = runRr(RrConfig::Rr, msg, observed);
        const RrResult llnd = runRr(RrConfig::Llnd, msg, observed);
        // The paper notes the 90th/99th percentiles behave like the
        // mean; the last column verifies that.
        std::printf("%-8llu %8.2f %9.2f %10.2f %7.3f %8.3f %10.3f\n",
                    static_cast<unsigned long long>(msg), ll.meanUs,
                    rrv.meanUs, llnd.meanUs, rrv.meanUs / ll.meanUs,
                    llnd.meanUs / ll.meanUs, rrv.p99Us / ll.p99Us);
    }
    obs.finish();
    return 0;
}
