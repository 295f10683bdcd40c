/**
 * @file
 * Unit tests for the discrete-event core: event ordering, clock
 * semantics, and run bounds.
 */
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace octo::sim {
namespace {

TEST(Simulator, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, SameTickEventsFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        sim.schedule(100, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative)
{
    Simulator sim;
    Tick seen = -1;
    sim.schedule(50, [&] {
        sim.scheduleIn(25, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 75);
}

TEST(Simulator, RunUntilStopsClockAtBound)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.schedule(1000, [&] { ++fired; });
    sim.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 100);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedScheduling)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 100)
            sim.scheduleIn(1, recurse);
    };
    sim.schedule(0, recurse);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 99);
}

TEST(Simulator, NegativeDelayClampsToNowAndIsCounted)
{
    Simulator sim;
    // A negative delay is a model bug: debug builds assert unless the
    // test opts in, and every clamp is counted for the
    // sim_negative_delay_total metric.
    sim.allowNegativeDelay(true);
    bool fired = false;
    sim.schedule(10, [&] {
        sim.scheduleIn(-5, [&] {
            fired = true;
            EXPECT_EQ(sim.now(), 10);
        });
    });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.negativeDelays(), 1u);
}

TEST(Simulator, PastAbsoluteTimeClampsToNowAndIsCounted)
{
    // An absolute time behind the clock is the same model bug as a
    // negative delay: every schedule(when, ...) form fires it at now
    // and counts it, inside a dispatch and between two runUntil calls.
    Simulator sim;
    sim.allowNegativeDelay(true);
    std::vector<Tick> at;
    const auto record = [&] { at.push_back(sim.now()); };
    EventRef ref = sim.makeEvent(record);
    const auto scheduleAll = [&](Tick when) {
        sim.schedule(when, record);
        sim.schedule(when, Domain{0, 0}, record);
        sim.schedule(when, ref);
    };
    sim.schedule(1000, [&] { scheduleAll(500); });
    sim.runUntil(2000);
    EXPECT_EQ(at, (std::vector<Tick>{1000, 1000, 1000}));
    EXPECT_EQ(sim.negativeDelays(), 3u);
    scheduleAll(500);
    sim.runUntil(3000);
    EXPECT_EQ(at, (std::vector<Tick>{1000, 1000, 1000, 2000, 2000, 2000}));
    EXPECT_EQ(sim.negativeDelays(), 6u);
    EXPECT_EQ(sim.now(), 3000);
    sim.release(ref);
}

TEST(Simulator, RunUntilNeverRewindsTheClock)
{
    Simulator sim;
    sim.runUntil(100);
    EXPECT_EQ(sim.now(), 100);
    // A stale (smaller) bound must not drag time backwards...
    sim.runUntil(40);
    EXPECT_EQ(sim.now(), 100);
    // ...and scheduling afterwards still respects when >= now.
    Tick seen = -1;
    sim.scheduleIn(5, [&] { seen = sim.now(); });
    sim.runUntil(60); // still behind now_: fires nothing new
    EXPECT_EQ(seen, -1);
    sim.runUntil(200);
    EXPECT_EQ(seen, 105);
    EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, CountsProcessedEvents)
{
    Simulator sim;
    for (int i = 0; i < 17; ++i)
        sim.schedule(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 17u);
}

TEST(TimeConversions, RoundTrip)
{
    EXPECT_EQ(fromNs(1.0), kTickPerNs);
    EXPECT_EQ(fromUs(1.0), kTickPerUs);
    EXPECT_EQ(fromMs(1.0), kTickPerMs);
    EXPECT_EQ(fromSec(1.0), kTickPerSec);
    EXPECT_DOUBLE_EQ(toNs(fromNs(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(toSec(fromSec(0.25)), 0.25);
}

TEST(TimeConversions, TransferTimeMatchesRate)
{
    // 1250 bytes at 100 Gb/s = 100 ns.
    EXPECT_EQ(transferTime(1250, 100.0), fromNs(100.0));
    // 64 bytes at 8 Gb/s = 64 ns.
    EXPECT_EQ(transferTime(64, 8.0), fromNs(64.0));
}

} // namespace
} // namespace octo::sim
