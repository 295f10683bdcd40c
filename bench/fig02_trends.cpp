/**
 * @file
 * Figure 2: NIC bandwidth vs per-CPU consumable bandwidth, 2008-2020.
 *
 * A data figure, not a simulation: single- and dual-port NIC line
 * rates per Ethernet generation against the bandwidth one CPU can
 * drive, under the paper's two per-core assumptions (513 Mb/s cloud
 * upper bound; 10 Gb/s netperf-style bare metal), times the highest
 * core count shipping that year. Reproduces the conclusion that one
 * NIC can satisfy all CPUs in the server (§2.6).
 */
#include <cstdio>

#include "common.hpp"

namespace {

struct YearPoint
{
    int year;
    double nicGbps;   ///< Single-port line rate shipping that year.
    int cores;        ///< Max cores per CPU (Intel/AMD) that year.
};

// Ethernet generations and per-CPU core counts from the figure's
// sources (Ethernet Alliance roadmap; Intel ARK / AMD EPYC).
const YearPoint kTrend[] = {
    {2008, 10, 4},   {2010, 10, 8},    {2012, 40, 10}, {2014, 40, 12},
    {2015, 100, 18}, {2017, 100, 28},  {2018, 200, 32}, {2020, 400, 48},
};

constexpr double kCloudPerCoreGbps = 0.513; // EC2 upper bound
constexpr double kBareMetalPerCoreGbps = 10.0; // netperf @ 50% core

} // namespace

int
main(int argc, char** argv)
{
    octo::bench::parseFlags(argc, argv); // no simulation to observe

    std::printf("\n### Fig. 2 — NIC vs CPU bandwidth trend "
                "[full-duplex Gb/s]\n");
    std::printf("%-6s %10s %10s %12s %14s %18s\n", "year", "1-port",
                "2-port", "cores/CPU", "cpu@513Mbps", "cpu@10Gbps/core");
    for (const auto& p : kTrend) {
        // Full duplex doubles the port rate, as in the paper's figure.
        std::printf("%-6d %10.0f %10.0f %12d %14.1f %18.0f\n", p.year,
                    2 * p.nicGbps, 4 * p.nicGbps, p.cores,
                    p.cores * kCloudPerCoreGbps * 2,
                    p.cores * kBareMetalPerCoreGbps * 2);
    }
    std::printf("\nShape check: the dual-port NIC line stays ~3.3x above "
                "the demanding 10Gbps/core CPU line and ~32x above the "
                "cloud-measured line by 2020 — one NIC suffices for all "
                "CPUs (paper §2.6).\n");
    return 0;
}
