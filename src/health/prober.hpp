/**
 * @file
 * Differential prober: gray-failure detection by sibling comparison.
 *
 * Gray faults (PfGrayDelay / PfGrayDrop) are invisible to the
 * HealthMonitor by construction — link up, bwFraction nominal, no AER
 * movement. What a gray PF cannot hide is its *round-trip time
 * relative to its siblings*: the same 64 B probe posted through each
 * PF of the octoNIC either completes in the same handful of
 * microseconds, or it doesn't. Every 1 ms the prober sends two probes
 * through every in-service PF of a plane, keeps a per-PF RTT EWMA
 * (alpha 0.4; a swallowed completion runs the probe clock to the
 * plane's watchdog — a huge sample, which is exactly the signal), and
 * demotes a PF through HealthMonitor::demoteExternal() when its EWMA
 * stays above 3 x best-sibling + 20 us (or above 1 ms outright) for
 * two rounds in a row. Recovery then runs through the monitor's
 * normal Failed → Probation → Healthy ladder.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "health/monitor.hpp"
#include "sim/task.hpp"

namespace octo::health {

class DifferentialProber
{
  public:
    explicit DifferentialProber(HealthMonitor& monitor);

    /** Spawn the probing task (idempotent). */
    void start();

    /** Current RTT EWMA for @p pf in microseconds (-1 = no sample). */
    double rttUs(int pf) const;

    /** Demotion requests issued to the monitor. */
    std::uint64_t demotions() const { return demotions_; }

  private:
    sim::Task<> run();

    HealthMonitor& mon_;
    std::vector<double> ewma_;  ///< Per-PF RTT EWMA in ticks (-1 unset).
    std::vector<int> streak_;   ///< Consecutive outlier rounds per PF.
    sim::Task<> task_;
    bool started_ = false;
    std::uint64_t rounds_ = 0;
    std::uint64_t probesSent_ = 0;
    std::uint64_t probesTimedOut_ = 0;
    std::uint64_t demotions_ = 0;
    int tracePid_ = 0;
};

} // namespace octo::health
