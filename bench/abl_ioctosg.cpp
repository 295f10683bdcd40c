/**
 * @file
 * Ablation: IOctoSG (paper §3.3, left unimplemented in the paper's
 * prototype — implemented here). Transmit buffers that span NUMA nodes
 * (e.g., sendfile() from the page cache) cannot be made NUDMA-free by
 * flow steering alone: a single PF would fetch half the payload across
 * the interconnect. IOctoSG lets the driver hint the local PF per
 * fragment.
 *
 * The experiment posts sendfile-style 64 KB descriptors whose payload
 * is split 50/50 across nodes and measures device throughput plus
 * interconnect traffic, with and without IOctoSG.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct SgResult
{
    double gbps;
    double qpiGbps;
};

SgResult
runSg(bool octo_sg, ObsSession* obs = nullptr)
{
    TestbedConfig cfg;
    cfg.mode = ServerMode::Ioctopus;
    obsBegin(obs, cfg, octo_sg ? "ioctosg" : "no-ioctosg");
    Testbed tb(cfg);
    tb.serverNic().setOctoSg(octo_sg);

    auto t = tb.serverThread(0, 0);
    sim::Semaphore inflight(tb.sim(), 64);
    std::uint64_t posted = 0;

    nic::FiveTuple flow;
    flow.srcIp = Testbed::kServerIp;
    flow.dstIp = Testbed::kClientIp;
    flow.srcPort = 9000;
    flow.dstPort = 9001;

    // Closed-loop poster of node-spanning 64 KB descriptors, bypassing
    // the socket copy path (sendfile()-style zero copy).
    auto poster = [&]() -> sim::Task<> {
        const int qid = tb.serverStack(0).queueForCore(t.core().id());
        for (;;) {
            co_await inflight.acquire();
            nic::TxDesc d;
            d.flow = flow;
            d.bytes = 64 << 10;
            d.skbNode = 0;
            d.loc = mem::DataLoc::Dram; // page cache, not CPU-hot
            d.spanBytes = 32 << 10;     // half the pages on node 1
            d.spanNode = 1;
            d.completionSem = &inflight;
            d.fastPath = true;
            co_await tb.serverNic().postTx(qid, d);
            ++posted;
        }
    };
    auto loop = sim::spawn(poster);
    if (obs != nullptr)
        obs->startSampler(tb);

    tb.runFor(kWarmup);
    const std::uint64_t p0 = posted;
    const std::uint64_t q0 = tb.server().qpiBytesTotal();
    tb.runFor(kWindow);
    SgResult res{
        sim::toGbps((posted - p0) * (64ull << 10), kWindow),
        sim::toGbps(tb.server().qpiBytesTotal() - q0, kWindow)};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "abl_ioctosg");

    printHeader("Ablation — IOctoSG for node-spanning Tx buffers",
                "config        tput[Gb/s]  qpi[Gb/s]");
    const auto off = runSg(false, &obs);
    const auto on = runSg(true, &obs);
    std::printf("%-13s %10.2f %10.2f\n", "no IOctoSG", off.gbps,
                off.qpiGbps);
    std::printf("%-13s %10.2f %10.2f\n", "IOctoSG", on.gbps,
                on.qpiGbps);
    std::printf("\nShape check: IOctoSG eliminates the interconnect "
                "traffic of the far fragments\n(qpi -> ~0) and lifts "
                "throughput when the remote fetch path is the "
                "bottleneck.\n");
    obs.finish();
    return 0;
}
