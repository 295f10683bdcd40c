/**
 * @file
 * Figure 10: memcached throughput and server memory bandwidth as the
 * SET ratio grows from 0% to 100% (14 memslap clients, 256 B keys,
 * 512 KB values).
 *
 * Paper shape: ioct/local leads remote by ~1.10x at 0% SETs growing to
 * ~1.16x at 100%, because SETs drive receive traffic that suffers
 * NUDMA; the value store exceeds the LLC, so even ioct/local shows
 * memory traffic.
 */
#include "common.hpp"
#include "workloads/kvstore.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const int kSetPct[] = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};

struct KvResult
{
    double ktps;
    double membwGBps;
};

KvResult
runKv(ServerMode mode, int set_pct, ObsSession* obs)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    obsBegin(obs, cfg,
             std::string(core::modeName(mode)) + "/set" +
                 std::to_string(set_pct));
    Testbed tb(cfg);

    workloads::KvConfig kv;
    kv.setRatio = set_pct / 100.0;
    workloads::KvWorkload wl(tb, tb.workNode(), kv);
    wl.start();
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(sim::fromMs(10));
    const std::uint64_t t0 = wl.transactions();
    const std::uint64_t d0 = tb.server().dramBytesTotal();
    const sim::Tick window = sim::fromMs(40);
    tb.runFor(window);
    const double secs = sim::toSec(window);
    KvResult res{(wl.transactions() - t0) / secs / 1e3,
                 sim::toGBps(tb.server().dramBytesTotal() - d0,
                             window)};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig10");

    printHeader("Fig. 10 — memcached vs SET ratio",
                "set%   ioct[kT/s]  remote[kT/s]  ioct/remote  "
                "ioct membw[GB/s]  remote membw[GB/s]");
    for (int pct : kSetPct) {
        // Observability records the 50% SET mix, both presets.
        ObsSession* observed = pct == 50 ? &obs : nullptr;
        const auto o = runKv(ServerMode::Ioctopus, pct, observed);
        const auto r = runKv(ServerMode::Remote, pct, observed);
        std::printf("%-6d %10.2f %13.2f %12.2f %17.2f %19.2f\n", pct,
                    o.ktps, r.ktps, o.ktps / r.ktps, o.membwGBps,
                    r.membwGBps);
    }
    obs.finish();
    return 0;
}
