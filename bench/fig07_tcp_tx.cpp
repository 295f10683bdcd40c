/**
 * @file
 * Figure 7: single-core TCP_STREAM transmit (TSO enabled) — throughput,
 * memory bandwidth, CPU vs message size.
 *
 * Paper shape: local and remote throughput are comparable (~47 Gb/s at
 * 64 KB; TSO makes copies dominate and DMA reads are serviced by
 * LLC-probing without invalidations), but remote's memory bandwidth
 * roughly equals its network throughput while ioct/local stays near
 * zero.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint64_t kSizes[] = {64, 256, 1024, 4096, 16384, 65536};

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig07");

    printHeader("Fig. 7 — single-core TCP Tx (TSO) vs message size",
                "msg      local[Gb/s]  remote[Gb/s]  ioct[Gb/s]  "
                "remote/local  remote membw/tput  "
                "membw l/r/io[Gb/s]     cpu l/r/io[cores]");
    for (std::uint64_t msg : kSizes) {
        const auto l = runTcpStream(modeConfig(ServerMode::Local), msg,
                                    workloads::StreamDir::ServerTx);
        const auto r = runTcpStream(modeConfig(ServerMode::Remote), msg,
                                    workloads::StreamDir::ServerTx);
        const auto o = runTcpStream(modeConfig(ServerMode::Ioctopus),
                                    msg, workloads::StreamDir::ServerTx);
        std::printf("%-8llu %11.2f %13.2f %11.2f %13.2f %18.2f"
                    "  %6.2f /%6.2f /%6.2f  %5.2f /%5.2f /%5.2f\n",
                    static_cast<unsigned long long>(msg), l.gbps, r.gbps,
                    o.gbps, r.gbps / l.gbps, r.membwGbps / r.gbps,
                    l.membwGbps, r.membwGbps, o.membwGbps, l.cpuCores,
                    r.cpuCores, o.cpuCores);
    }
    if (obs) {
        // Observability pass: the three presets at 64 KiB, short
        // window, full pipeline (spans + counter tracks + report).
        for (auto mode : {ServerMode::Local, ServerMode::Remote,
                          ServerMode::Ioctopus}) {
            runTcpStream(modeConfig(mode), 65536,
                         workloads::StreamDir::ServerTx, sim::fromMs(2),
                         sim::fromMs(3), &obs);
        }
    }
    obs.finish();
    return 0;
}
