/**
 * @file
 * Figure 6: single-core TCP_STREAM receive — throughput, memory
 * bandwidth, and CPU utilization vs netperf message size, for
 * ioct/local vs remote.
 *
 * Paper shape: ioct/local always ahead; ~1.08x at small sizes growing
 * to ~1.25-1.26x past the MTU; remote memory bandwidth ~3x its network
 * throughput (no DDIO), ioct/local near zero.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint64_t kSizes[] = {64, 256, 1024, 4096, 16384, 65536};

/**
 * Observability pass (`--trace` / `--sample-us`): rerun the three
 * presets at 16 KiB against the shared ObsSession, then dump the
 * Perfetto trace, the Prometheus/CSV snapshot, and (when sampling) the
 * report time series. A short window keeps the trace within the event
 * cap while the DMA-locality counters still see tens of thousands of
 * transfers per preset.
 */
void
runTraced(ObsSession& obs)
{
    for (auto mode : {ServerMode::Local, ServerMode::Remote,
                      ServerMode::Ioctopus}) {
        runTcpStream(modeConfig(mode), 16384,
                     workloads::StreamDir::ServerRx, sim::fromMs(2),
                     sim::fromMs(3), &obs);
    }

    obs::MetricRegistry& reg = obs.hub()->metrics();
    std::printf("\n# DMA locality, server NIC (16 KiB Rx, traced "
                "pass)\n");
    std::printf("%-10s %16s %16s %9s %10s\n", "preset", "local[B]",
                "remote[B]", "local%", "crossings");
    for (auto mode : {ServerMode::Local, ServerMode::Remote,
                      ServerMode::Ioctopus}) {
        const obs::Labels match = {{"dev", "octoNIC"},
                                   {"run", core::modeName(mode)}};
        const std::uint64_t local =
            reg.sumCounters("dma_local_bytes", match);
        const std::uint64_t remote =
            reg.sumCounters("dma_remote_bytes", match);
        const std::uint64_t cross =
            reg.sumCounters("interconnect_crossings", match);
        const double total = static_cast<double>(local + remote);
        std::printf("%-10s %16llu %16llu %8.2f%% %10llu\n",
                    core::modeName(mode),
                    static_cast<unsigned long long>(local),
                    static_cast<unsigned long long>(remote),
                    total > 0 ? 100.0 * static_cast<double>(local) / total
                              : 0.0,
                    static_cast<unsigned long long>(cross));
    }

    // E2e latency per preset: the paper's prediction is remote > ioct.
    std::printf("\n# latency_e2e_ns (wire arrival -> recv copy)\n");
    std::printf("%-10s %12s %12s %12s %12s\n", "preset", "count", "p50",
                "p99", "mean");
    for (auto mode : {ServerMode::Local, ServerMode::Remote,
                      ServerMode::Ioctopus}) {
        const obs::Histogram* h = reg.findHistogram(
            "latency_e2e_ns",
            {{"dev", "octoNIC"}, {"run", core::modeName(mode)}});
        if (h == nullptr)
            continue;
        std::printf("%-10s %12llu %12.0f %12.0f %12.0f\n",
                    core::modeName(mode),
                    static_cast<unsigned long long>(h->count()),
                    h->p50(), h->p99(), h->mean());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig06");

    // Paper-style series table: throughput, then the memory-bandwidth
    // and CPU series of all three presets.
    printHeader("Fig. 6 — single-core TCP Rx vs message size",
                "msg      local[Gb/s]  remote[Gb/s]  ioct[Gb/s]  "
                "ioct/remote  remote membw/tput  "
                "membw l/r/io[Gb/s]     cpu l/r/io[cores]");
    for (std::uint64_t msg : kSizes) {
        const auto l = runTcpStream(modeConfig(ServerMode::Local), msg,
                                    workloads::StreamDir::ServerRx);
        const auto r = runTcpStream(modeConfig(ServerMode::Remote), msg,
                                    workloads::StreamDir::ServerRx);
        const auto o = runTcpStream(modeConfig(ServerMode::Ioctopus),
                                    msg, workloads::StreamDir::ServerRx);
        std::printf("%-8llu %11.2f %13.2f %11.2f %12.2f %18.2f"
                    "  %6.2f /%6.2f /%6.2f  %5.2f /%5.2f /%5.2f\n",
                    static_cast<unsigned long long>(msg), l.gbps, r.gbps,
                    o.gbps, o.gbps / r.gbps,
                    r.membwGbps / r.gbps, l.membwGbps, r.membwGbps,
                    o.membwGbps, l.cpuCores, r.cpuCores, o.cpuCores);
    }
    if (obs)
        runTraced(obs);
    obs.finish();
    return 0;
}
