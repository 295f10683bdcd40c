/**
 * @file
 * Figure 8: single-core pktgen raw packet transmission — network
 * throughput and memory bandwidth vs packet size.
 *
 * Paper shape: ioct/local ~1.3-1.39x remote at every size (local
 * ~4.1 MPPS vs remote ~3.08 MPPS at 64 B); the delta is the ~80 ns DRAM
 * read of the completion entry the NIC wrote, which DDIO turns into an
 * LLC hit locally. Remote also shows per-packet memory traffic.
 */
#include "common.hpp"

using namespace octo;
using namespace octo::bench;

namespace {

const std::uint32_t kSizes[] = {64, 128, 256, 512, 1024, 1500};

} // namespace

int
main(int argc, char** argv)
{
    ObsSession obs(parseFlags(argc, argv).obs, "fig08");

    printHeader("Fig. 8 — single-core pktgen vs packet size",
                "pkt      local[MPPS/Gb/s]  remote[MPPS/Gb/s]  "
                "ioct/remote  remote membw[Gb/s]");
    for (std::uint32_t size : kSizes) {
        // Observability records the three presets at 64 B line rate.
        ObsSession* observed = size == 64 ? &obs : nullptr;
        const auto l = runPktgen(ServerMode::Local, size, observed);
        const auto r = runPktgen(ServerMode::Remote, size, observed);
        const auto o = runPktgen(ServerMode::Ioctopus, size, observed);
        std::printf("%-8u %7.2f /%7.2f %8.2f /%7.2f %10.2f %16.2f\n",
                    size, l.mpps, l.gbps, r.mpps, r.gbps,
                    o.gbps / r.gbps, r.membwGbps);
    }
    obs.finish();
    return 0;
}
