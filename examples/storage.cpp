/**
 * @file
 * OctoSSD demo (the paper's §5.4 future work, implemented here): a
 * dual-port NVMe drive whose driver homes each node's submission queue
 * on the port local to that node, so a reader's DMA (its buffers live
 * on its own node) never crosses the interconnect — storage I/O made
 * NUDMA-free the same way the octoNIC does for networking. Reproduces
 * the Fig. 15 sensitivity in miniature and shows the OctoSSD immunity.
 *
 * Usage: octo_ssd [n_antagonist_streams]
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "nvme/driver.hpp"
#include "sim/stats.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/fio.hpp"

using namespace octo;

namespace {

double
runFio(int n_streams, bool octo_ssd)
{
    sim::Simulator sim;
    topo::Calibration cal;
    topo::Machine m(sim, cal, "server");

    // One driver per drive, one SQ per node homed on the node-local
    // port: the OctoSSD's second port serves the fio node.
    std::vector<std::unique_ptr<nvme::NvmeDevice>> ssds;
    std::vector<std::unique_ptr<nvme::NvmeDriver>> drivers;
    std::vector<nvme::NvmeDriver*> ptrs;
    for (int i = 0; i < 4; ++i) {
        ssds.push_back(std::make_unique<nvme::NvmeDevice>(
            m, 1, 4, "ssd" + std::to_string(i)));
        if (octo_ssd)
            ssds.back()->addSecondPort(0, 4);
        drivers.push_back(std::make_unique<nvme::NvmeDriver>(*ssds.back()));
        for (int n = 0; n < cal.nodes; ++n)
            drivers.back()->addSq(n);
        ptrs.push_back(drivers.back().get());
    }

    workloads::FioConfig fc;
    std::vector<std::unique_ptr<workloads::FioThread>> fio;
    for (int i = 0; i < 8; ++i) {
        fio.push_back(std::make_unique<workloads::FioThread>(
            os::ThreadCtx(m, m.coreOn(0, i)), ptrs, fc));
        fio.back()->start();
    }

    std::vector<std::unique_ptr<workloads::StreamAntagonist>> ants;
    for (int i = 0; i < n_streams; ++i) {
        ants.push_back(std::make_unique<workloads::StreamAntagonist>(
            m, m.coreOn(1, i % cal.coresPerNode), 0,
            i % 2 ? topo::MemDir::Read : topo::MemDir::Write));
        ants.back()->setMixed(true);
        ants.back()->start();
    }

    sim.runUntil(sim::fromMs(5));
    std::uint64_t b0 = 0;
    for (auto& f : fio)
        b0 += f->bytesRead();
    sim.runUntil(sim::fromMs(30));
    std::uint64_t b1 = 0;
    for (auto& f : fio)
        b1 += f->bytesRead();
    return sim::toGBps(b1 - b0, sim::fromMs(25));
}

} // namespace

int
main(int argc, char** argv)
{
    const int streams = argc > 1 ? std::atoi(argv[1]) : 10;

    std::printf("fio: 8 threads x QD32 x 128 KB reads; 4 SSDs on the "
                "remote socket;\n%d STREAM antagonists on the SSDs' "
                "socket targeting the fio node\n\n",
                streams);
    std::printf("%-22s %14s\n", "configuration", "fio [GB/s]");
    const double solo = runFio(0, false);
    const double congested = runFio(streams, false);
    const double octo = runFio(streams, true);
    std::printf("%-22s %14.2f\n", "single-port, idle", solo);
    std::printf("%-22s %14.2f\n", "single-port, congested", congested);
    std::printf("%-22s %14.2f\n", "OctoSSD,    congested", octo);
    std::printf("\nAccessing high-speed I/O devices over the CPU "
                "interconnect is suboptimal and\ncan be avoided using "
                "IOctopus (paper §5.4) — the dual-port OctoSSD steers "
                "each\nDMA through the buffer-local port and is immune "
                "to the congestion.\n");
    return 0;
}
