/**
 * @file
 * Oracle unit tests: the continuous checker actually catches broken
 * accounting (each canned watcher fires on a provoked violation, with
 * a snapshot naming the offending numbers) and stays silent on
 * consistent state. The Oracle only records; these tests read its log.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "bypass/mempool.hpp"
#include "chaos/oracle.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace octo::chaos {
namespace {

using sim::fromMs;

TEST(Oracle, CustomInvariantRecordsSnapshotAndTime)
{
    sim::Simulator sim;
    Oracle oracle(sim);
    bool broken = false;
    oracle.addInvariant("credit_total", [&]() -> std::string {
        return broken ? "held=-3 outside [0, 480k]" : "";
    });
    oracle.start();

    sim.runUntil(fromMs(3));
    EXPECT_EQ(oracle.violations(), 0u);
    EXPECT_GE(oracle.checks(), 2u);

    sim.schedule(fromMs(4), [&] { broken = true; });
    sim.runUntil(fromMs(5) + sim::fromUs(10));
    ASSERT_GE(oracle.violations(), 1u);
    const Violation& v = oracle.log().front();
    EXPECT_EQ(v.invariant, "credit_total");
    EXPECT_NE(v.snapshot.find("held=-3"), std::string::npos);
    EXPECT_GE(v.at, fromMs(4));
}

TEST(Oracle, MempoolWatcherCatchesUnaccountedBuffers)
{
    sim::Simulator sim;
    bypass::Mempool pool(sim, "pool");
    pool.addCapacity(0, 8);
    pool.addCapacity(1, 8);
    Oracle oracle(sim);
    // Deliberately mis-scoped watcher: it sums node 0 only, so buffers
    // taken on node 1 look minted — the exact signature a real arena
    // leak would show. (The pool's own API cannot be driven into an
    // inconsistent state; an asserting free() catches double-frees
    // before the oracle ever runs.)
    oracle.watchMempool("pool", pool, 1);
    oracle.start();

    // Node-0 allocations: the watched sum matches, green.
    ASSERT_TRUE(pool.tryAlloc(0));
    ASSERT_TRUE(pool.tryAlloc(0));
    sim.runUntil(fromMs(2));
    EXPECT_EQ(oracle.violations(), 0u);

    // Buffers outside the watched accounting: allocs - frees no
    // longer equals the in-use the oracle can see.
    ASSERT_TRUE(pool.tryAlloc(1));
    sim.runUntil(fromMs(4));
    EXPECT_GE(oracle.violations(), 1u);
    EXPECT_NE(oracle.log().front().snapshot.find("in_use"),
              std::string::npos);
}

TEST(Oracle, ChurnWatcherFlagsOscillation)
{
    sim::Simulator sim;
    std::uint64_t resteers = 0;
    Oracle oracle(sim);
    oracle.watchChurn("resteers", [&] { return resteers; }, 4);
    oracle.start();

    // Settled steering: a couple of moves per interval is fine.
    sim.schedule(fromMs(1) + sim::fromUs(500), [&] { resteers += 3; });
    sim.runUntil(fromMs(3));
    EXPECT_EQ(oracle.violations(), 0u);

    // Oscillation: a burst past the budget inside one interval.
    sim.schedule(fromMs(3) + sim::fromUs(100), [&] { resteers += 40; });
    sim.runUntil(fromMs(5));
    ASSERT_GE(oracle.violations(), 1u);
    EXPECT_NE(oracle.log().front().snapshot.find("budget"),
              std::string::npos);
}

TEST(Oracle, ProgressWatcherHonorsExemption)
{
    sim::Simulator sim;
    std::uint64_t delivered = 0;
    bool all_paths_dead = false;
    Oracle oracle(sim);
    oracle.watchProgress("flow", [&] { return delivered; }, fromMs(2),
                         [&] { return all_paths_dead; });
    oracle.start();

    // Advancing flow: green.
    for (int i = 1; i <= 4; ++i)
        sim.schedule(fromMs(i), [&] { ++delivered; });
    sim.runUntil(fromMs(5));
    EXPECT_EQ(oracle.violations(), 0u);

    // Stuck but exempt (every path faulted): still green.
    all_paths_dead = true;
    sim.runUntil(fromMs(12));
    EXPECT_EQ(oracle.violations(), 0u);

    // Exemption lifts, flow still stuck: the bound now applies.
    all_paths_dead = false;
    sim.runUntil(fromMs(20));
    ASSERT_GE(oracle.violations(), 1u);
    EXPECT_NE(oracle.log().front().snapshot.find("no advance"),
              std::string::npos);
}

TEST(Oracle, SweepIsReadOnlyAndCountsChecks)
{
    sim::Simulator sim;
    Oracle oracle(sim);
    int calls = 0;
    oracle.addInvariant("a", [&]() -> std::string {
        ++calls;
        return "";
    });
    oracle.addInvariant("b", [&]() -> std::string {
        ++calls;
        return "";
    });
    EXPECT_EQ(oracle.sweep(), 0);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(oracle.checks(), 2u);
    EXPECT_EQ(oracle.violations(), 0u);
}

} // namespace
} // namespace octo::chaos
