/**
 * @file
 * Figure 15: NVMe NUDMA sensitivity. Eight fio threads issue QD32
 * 128 KB reads against four SSDs attached to the *other* socket while
 * an increasing number of STREAM instances (running on the SSDs'
 * socket, targeting the fio node's memory) congest the interconnect.
 *
 * Paper shape: fio throughput is SSD-bound until the UPI saturates
 * (~5 STREAMs), then degrades by up to ~24%; STREAM throughput also
 * normalizes down. An OctoSSD (dual-port, its driver's node-0 SQ homed
 * on the node-0 port — the paper's future work, which we implement) is
 * immune; printed as an extra column.
 */
#include <memory>

#include "common.hpp"
#include "nvme/driver.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/fio.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

struct NvmeResult
{
    double fioGBps;
    double streamGBps;
};

NvmeResult
runNvme(int n_streams, bool octo_ssd, ObsSession* obs = nullptr)
{
    // Standalone single-host experiment: no NIC involved, so the hub
    // attaches to the raw simulator and the watches are hand-rolled.
    topo::Calibration cal;
    sim::Simulator sim;
    if (obs != nullptr && obs->active()) {
        obs->beginRun(std::string(octo_ssd ? "octossd" : "ssd") + "/" +
                      std::to_string(n_streams) + "streams");
        sim.setHub(obs->hub());
    }
    topo::Machine m(sim, cal, "server");

    // Four SSDs on socket 1; fio threads and their buffers on socket 0.
    // Each drive's driver has an SQ per node, homed on the node-local
    // port: port 0 (socket 1) on a plain drive, the second port on an
    // OctoSSD.
    std::vector<std::unique_ptr<nvme::NvmeDevice>> ssds;
    std::vector<std::unique_ptr<nvme::NvmeDriver>> drivers;
    std::vector<nvme::NvmeDriver*> drv_ptrs;
    for (int i = 0; i < 4; ++i) {
        ssds.push_back(std::make_unique<nvme::NvmeDevice>(
            m, 1, 4, "ssd" + std::to_string(i)));
        if (octo_ssd)
            ssds.back()->addSecondPort(0, 4);
        drivers.push_back(std::make_unique<nvme::NvmeDriver>(*ssds.back()));
        for (int n = 0; n < cal.nodes; ++n)
            drivers.back()->addSq(n);
        drv_ptrs.push_back(drivers.back().get());
    }

    workloads::FioConfig fc;
    std::vector<std::unique_ptr<workloads::FioThread>> fio;
    for (int i = 0; i < 8; ++i) {
        fio.push_back(std::make_unique<workloads::FioThread>(
            os::ThreadCtx(m, m.coreOn(0, i)), drv_ptrs, fc));
        fio.back()->start();
    }

    // STREAM antagonists on the SSDs' socket targeting fio's memory.
    std::vector<std::unique_ptr<workloads::StreamAntagonist>> ants;
    for (int i = 0; i < n_streams; ++i) {
        ants.push_back(std::make_unique<workloads::StreamAntagonist>(
            m, m.coreOn(1, i % cal.coresPerNode), 0,
            i % 2 == 0 ? topo::MemDir::Write : topo::MemDir::Read));
        // Full STREAM kernels mix reads and writes, loading both
        // interconnect directions.
        ants.back()->setMixed(true);
        ants.back()->start();
    }

    if (obs != nullptr) {
        if (obs::Sampler* s = obs->makeSampler(sim)) {
            s->watchRate("fio_read_gbps", [&fio] {
                std::uint64_t b = 0;
                for (auto& f : fio)
                    b += f->bytesRead();
                return b;
            });
            s->watchRate("stream_gbps", [&ants] {
                std::uint64_t b = 0;
                for (auto& a : ants)
                    b += a->bytesMoved();
                return b;
            });
            s->watchRate("qpi_gbps",
                         [&m] { return m.qpiBytesTotal(); });
            s->watchRate("membw_gbps",
                         [&m] { return m.dramBytesTotal(); });
            s->start();
        }
    }
    sim.runUntil(sim::fromMs(5));
    std::uint64_t f0 = 0;
    for (auto& f : fio)
        f0 += f->bytesRead();
    std::uint64_t s0 = 0;
    for (auto& a : ants)
        s0 += a->bytesMoved();
    const sim::Tick window = sim::fromMs(25);
    sim.runUntil(sim::fromMs(30));

    std::uint64_t f1 = 0;
    for (auto& f : fio)
        f1 += f->bytesRead();
    std::uint64_t s1 = 0;
    for (auto& a : ants)
        s1 += a->bytesMoved();
    NvmeResult res{sim::toGBps(f1 - f0, window),
                   sim::toGBps(s1 - s0, window)};
    if (obs != nullptr)
        obs->endRun();
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig15");

    const double fio_base = runNvme(0, false).fioGBps;
    const double stream_base = runNvme(1, false).streamGBps;
    const double fio_base_octo = runNvme(0, true).fioGBps;

    printHeader("Fig. 15 — remote NVMe vs interconnect congestion "
                "(normalized)",
                "#streams  fio[norm]  STREAM[norm]  fio-octoSSD[norm]");
    for (int n = 1; n <= 10; ++n) {
        // Observability records the saturated interconnect, plain vs
        // octo SSD: each drive's driver writes its I/O times into a
        // per-dev latency_e2e_ns histogram.
        ObsSession* observed = n == 6 ? &obs : nullptr;
        const auto r = runNvme(n, false, observed);
        const auto o = runNvme(n, true, observed);
        std::printf("%-9d %9.3f %12.3f %17.3f\n", n,
                    r.fioGBps / fio_base,
                    r.streamGBps / (stream_base * n > 0 ? stream_base * n
                                                        : 1),
                    o.fioGBps / fio_base_octo);
    }
    obs.finish();
    return 0;
}
