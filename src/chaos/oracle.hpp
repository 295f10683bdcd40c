/**
 * @file
 * Continuous invariant oracle for chaos campaigns.
 *
 * End-state assertions ("nothing leaked once the dust settled") miss an
 * entire class of bugs: accounting that goes wrong *during* a fault and
 * silently self-corrects before quiescence, or a steering loop that
 * oscillates for milliseconds before settling. The Oracle is the
 * chaos-side mirror of obs::Sampler — a simulator-scheduled coroutine
 * that wakes on a fixed cadence and re-checks a set of global
 * invariants while faults are still in flight:
 *
 *  - window-credit conservation on every watched connection,
 *  - bypass Mempool buffer conservation (allocs - frees == in use,
 *    per-node use within capacity),
 *  - bounded re-steer churn per check interval,
 *  - no-stuck-flow progress (a watched counter must advance within a
 *    bound unless its exemption — e.g. "every path is faulted" —
 *    currently holds).
 *
 * The sweep runs every 500 us. A violation is recorded, with a
 * snapshot of the offending accounting, in log() and as a trace
 * instant; the run goes on. Callers own the verdict: the soak tests
 * fail on a non-empty log, and bench_chaos_soak prints it and writes
 * the count to its report.
 *
 * Checks are read-only and never await model work, so results are
 * bit-identical with the oracle on or off. The Oracle is per-run and
 * must be destroyed before the simulator it schedules on (declare it
 * after the Testbed).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace octo::sim {
class Simulator;
}

namespace octo::os {
class Socket;
}

namespace octo::bypass {
class Mempool;
}

namespace octo::chaos {

/** One recorded invariant violation. */
struct Violation
{
    std::string invariant;
    std::string snapshot; ///< The offending accounting, human-readable.
    sim::Tick at = 0;
};

class Oracle
{
  public:
    /** An invariant check: empty string = holds; anything else is the
     *  violation snapshot. Must be read-only and non-blocking. */
    using Check = std::function<std::string()>;

    explicit Oracle(sim::Simulator& sim);
    ~Oracle();

    /** Register invariant @p name. Checks run in registration order. */
    void addInvariant(std::string name, Check check);

    // ----------------------------------------------- canned invariants
    /** Window-credit conservation on a connected pair: each side's
     *  credit count stays within [0, windowBytes] and reclaimed bytes
     *  never exceed the recorded losses they compensate. */
    void watchSocketPair(const os::Socket& client,
                         const os::Socket& server);

    /** Mempool buffer conservation over nodes [0, @p nodes): per-node
     *  use within capacity, and allocs - frees equals the total in
     *  use. @p name distinguishes multiple pools in snapshots. */
    void watchMempool(std::string name, const bypass::Mempool& pool,
                      int nodes);

    /** Bounded churn: the cumulative counter @p counter may grow by at
     *  most @p budget per check interval. Catches steering loops that
     *  oscillate instead of settling. */
    void watchChurn(std::string name,
                    std::function<std::uint64_t()> counter,
                    std::uint64_t budget);

    /** No-stuck-flow progress: @p counter must advance at least once
     *  every @p bound of simulated time — unless @p exempt (when set)
     *  returns true, e.g. "every path to this flow is faulted". */
    void watchProgress(std::string name,
                       std::function<std::uint64_t()> counter,
                       sim::Tick bound,
                       std::function<bool()> exempt = {});

    /** Spawn the checking task (idempotent). */
    void start();

    /** Run every registered invariant once, immediately (also used by
     *  the periodic task). Returns violations found this sweep. */
    int sweep();

    std::uint64_t checks() const { return checks_; }
    std::uint64_t violations() const { return violations_; }
    const std::vector<Violation>& log() const { return log_; }

  private:
    struct Entry
    {
        std::string name;
        Check check;
    };

    void report(const Entry& e, const std::string& snapshot);

    sim::Simulator& sim_;
    std::vector<Entry> entries_;
    std::vector<Violation> log_;
    sim::EventRef tick_; ///< Periodic sweep cadence (one slot).
    bool started_ = false;
    std::uint64_t checks_ = 0;
    std::uint64_t violations_ = 0;
    int tracePid_ = 0;
};

} // namespace octo::chaos
