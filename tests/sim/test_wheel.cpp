/**
 * @file
 * Timer-wheel event core tests: ordering across wheel levels and the
 * overflow heap, the pooled EventRef/periodic API, pool growth, and
 * teardown reclamation of parked coroutine frames.
 *
 * The geometry under test is Simulator's (DESIGN.md §11): level-0
 * slots of kSlotTicks up to the kL0Horizon, level 1 up to the
 * kWheelHorizon, and the overflow min-heap beyond. Every constant here
 * derives from those, so each test reaches the tier it names whatever
 * the slot width.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace octo::sim {
namespace {

constexpr Tick kSlotTicks = Simulator::kSlotTicks;
constexpr Tick kL0Horizon = Simulator::kL0Horizon;
constexpr Tick kWheelHorizon = Simulator::kWheelHorizon;
static_assert(kSlotTicks < kL0Horizon && kL0Horizon < kWheelHorizon);

/** Randomized property: dispatch order is (when, scheduling order)
 *  regardless of which level or heap each event files into. */
TEST(TimerWheel, RandomizedSameTickFifoAcrossLevels)
{
    std::mt19937 rng(0xC0FFEE);
    Simulator sim;
    // Draw times from a few clustered tick values plus a wide range so
    // same-tick runs, slot neighbours, level-1 cascades, and overflow
    // events all occur in one schedule order.
    std::vector<Tick> hot;
    std::uniform_int_distribution<Tick> wide(0, kWheelHorizon * 2);
    for (int i = 0; i < 12; ++i)
        hot.push_back(wide(rng));
    std::vector<std::pair<Tick, int>> fired;
    constexpr int kEvents = 4000;
    std::vector<std::pair<Tick, int>> expect;
    for (int i = 0; i < kEvents; ++i) {
        const bool clustered = (rng() & 3) != 0; // 75% same-tick runs
        const Tick when =
            clustered ? hot[rng() % hot.size()] : wide(rng);
        expect.emplace_back(when, i);
        sim.schedule(when, [&fired, &sim, i] {
            fired.emplace_back(sim.now(), i);
        });
    }
    sim.run(kWheelHorizon * 4);
    ASSERT_EQ(fired.size(), expect.size());
    // FIFO per tick == stable sort of the schedule order by time.
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, expect);
}

/** Events scheduled mid-run keep the same ordering guarantee. */
TEST(TimerWheel, NestedSchedulingKeepsOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(1000, [&] {
        order.push_back(0);
        // Same tick as in-flight window, later seq: fires after this
        // event but before anything at a later tick.
        sim.schedule(1000, [&] { order.push_back(1); });
        sim.schedule(1001, [&] { order.push_back(2); });
    });
    sim.schedule(1001, [&] { order.push_back(3); });
    sim.run();
    // 1001-tick events: the pre-scheduled one has the smaller seq.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
}

TEST(TimerWheel, CascadeFromLevel1PreservesOrder)
{
    Simulator sim;
    std::vector<int> order;
    // All three land in one level-1 bucket (one kL0Horizon-aligned
    // block past level 0's reach) and in two different level-0 windows
    // after the cascade.
    const Tick base = kL0Horizon * 3;
    const Tick later = base + kSlotTicks * 5 + 5000;
    sim.schedule(later, [&] { order.push_back(1); });
    sim.schedule(base + 100, [&] { order.push_back(0); });
    sim.schedule(later, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), later);
}

TEST(TimerWheel, OverflowHorizonRollover)
{
    Simulator sim;
    std::vector<int> order;
    // Beyond the 2^40 wheel horizon: waits in the overflow heap, gets
    // admitted once the wheel clock advances, and still interleaves
    // correctly with near events scheduled from inside callbacks.
    sim.schedule(kWheelHorizon + 77, [&] {
        order.push_back(2);
        sim.scheduleIn(10, [&] { order.push_back(3); });
    });
    sim.schedule(5, [&] { order.push_back(0); });
    sim.schedule(kWheelHorizon - 1, [&] { order.push_back(1); });
    sim.run(kWheelHorizon * 2);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sim.now(), kWheelHorizon + 87);
}

TEST(TimerWheel, RunUntilMidWindowRefilesTail)
{
    Simulator sim;
    // Two events in the same level-0 window, a runUntil bound between
    // them: the second must survive the cut and fire later.
    const Tick w = kSlotTicks * 2;
    static_assert(kSlotTicks > 3, "both events share one window");
    std::vector<Tick> at;
    sim.schedule(w, [&] { at.push_back(sim.now()); });
    sim.schedule(w + 3, [&] { at.push_back(sim.now()); });
    sim.runUntil(w + 1);
    EXPECT_EQ(at, (std::vector<Tick>{w}));
    EXPECT_EQ(sim.now(), w + 1);
    sim.runUntil(w + kSlotTicks);
    EXPECT_EQ(at, (std::vector<Tick>{w, w + 3}));
}

// ---- EventRef / periodic API -----------------------------------------

TEST(TimerWheel, EventRefArmsFiresAndRearms)
{
    Simulator sim;
    int fires = 0;
    EventRef ev = sim.makeEvent([&] { ++fires; });
    EXPECT_FALSE(sim.pending(ev));
    sim.schedule(100, ev);
    EXPECT_TRUE(sim.pending(ev));
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(sim.pending(ev));
    sim.scheduleIn(50, ev); // instant zero-setup re-arm
    sim.run();
    EXPECT_EQ(fires, 2);
    sim.release(ev);
    EXPECT_FALSE(ev.valid());
}

TEST(TimerWheel, EventRefCancelAndStaleRef)
{
    Simulator sim;
    int fires = 0;
    EventRef ev = sim.makeEvent([&] { ++fires; });
    sim.schedule(10, ev);
    EXPECT_TRUE(sim.cancel(ev));
    EXPECT_FALSE(sim.pending(ev));
    sim.run();
    EXPECT_EQ(fires, 0);
    EventRef stale = ev;
    sim.release(ev);
    // The released slot may be recycled; the stale ref's generation
    // check makes every operation a safe no-op.
    EXPECT_FALSE(sim.pending(stale));
    EXPECT_FALSE(sim.cancel(stale));
}

TEST(TimerWheel, PeriodicCadenceIsDriftFree)
{
    Simulator sim;
    std::vector<Tick> at;
    // Interval far above the level-0 window and not a power of two:
    // every occurrence re-files through level 1.
    const Tick interval = kL0Horizon + 12345;
    EventRef ev = sim.schedulePeriodic(
        1000, interval, [&] { at.push_back(sim.now()); });
    sim.runUntil(1000 + interval * 5 + 1);
    ASSERT_EQ(at.size(), 6u);
    for (std::size_t i = 0; i < at.size(); ++i)
        EXPECT_EQ(at[i], 1000 + interval * static_cast<Tick>(i));
    EXPECT_TRUE(sim.cancel(ev));
    sim.runUntil(interval * 20);
    EXPECT_EQ(at.size(), 6u);
}

TEST(TimerWheel, PeriodicSelfCancelStopsCadence)
{
    Simulator sim;
    int fires = 0;
    EventRef ev;
    ev = sim.schedulePeriodic(10, 10, [&] {
        if (++fires == 3)
            sim.cancel(ev); // from inside the callback
    });
    sim.run();
    EXPECT_EQ(fires, 3);
    EXPECT_TRUE(sim.idle());
}

// ---- slot pool -------------------------------------------------------

TEST(TimerWheel, PoolGrowsGracefullyUnderBurst)
{
    Simulator sim;
    EXPECT_EQ(sim.poolGrowths(), 0u);
    const std::size_t initial = sim.poolCapacity();
    int fired = 0;
    const int burst = static_cast<int>(initial) * 3 + 17;
    for (int i = 0; i < burst; ++i)
        sim.schedule(100 + (i % 7), [&] { ++fired; });
    EXPECT_GE(sim.poolInUse(), static_cast<std::size_t>(burst));
    EXPECT_GT(sim.poolGrowths(), 0u);
    EXPECT_GE(sim.poolCapacity(), static_cast<std::size_t>(burst));
    sim.run();
    EXPECT_EQ(fired, burst);
    EXPECT_EQ(sim.poolInUse(), 0u);
    // Steady state after the burst: capacity is retained, no growth.
    const std::uint64_t growths = sim.poolGrowths();
    for (int i = 0; i < burst; ++i)
        sim.schedule(200, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(sim.poolGrowths(), growths);
}

TEST(TimerWheel, ColdCallbackFallbackIsCounted)
{
    Simulator sim;
    struct Fat
    {
        char pad[96] = {}; // exceeds the 64-byte inline buffer
    };
    Fat fat;
    bool ran = false;
    sim.schedule(10, [fat, &ran] {
        (void)fat;
        ran = true;
    });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.coldCallbacks(), 1u);
}

// ---- teardown --------------------------------------------------------

struct DtorFlag
{
    bool* flag;
    explicit DtorFlag(bool* f) : flag(f) {}
    DtorFlag(const DtorFlag&) = delete;
    DtorFlag& operator=(const DtorFlag&) = delete;
    ~DtorFlag() { *flag = true; }
};

Task<>
parkedProcess(Simulator& sim, bool* destroyed)
{
    DtorFlag sentinel(destroyed);
    for (;;)
        co_await delay(sim, 1000);
}

TEST(TimerWheel, TeardownDestroysParkedDetachedFrames)
{
    bool destroyed = false;
    {
        Simulator sim;
        parkedProcess(sim, &destroyed).detach();
        sim.runUntil(5000);
        EXPECT_FALSE(destroyed);
        // ~Simulator: the parked resume event's frame is detached
        // (no Task owns it), so teardown destroys it — running the
        // frame-local destructors — instead of leaking.
    }
    EXPECT_TRUE(destroyed);
}

Task<>
transferForever(Pipe& pipe, bool* destroyed)
{
    DtorFlag sentinel(destroyed);
    for (;;)
        co_await pipe.transfer(1250);
}

TEST(TimerWheel, TeardownDestroysDetachedFrameParkedInTransfer)
{
    // Pipe::transfer parks the awaiting coroutine itself on the timer
    // event, so teardown finds the detached frame there too.
    bool destroyed = false;
    {
        Simulator sim;
        Pipe pipe(sim, 100.0); // 1250 B = 100 ns
        transferForever(pipe, &destroyed).detach();
        sim.runUntil(fromNs(250));
        EXPECT_EQ(pipe.transfers(), 3u);
        EXPECT_FALSE(destroyed);
    }
    EXPECT_TRUE(destroyed);
}

TEST(TimerWheel, TeardownCascadesThroughOwnedTasks)
{
    // An outer detached frame owning an inner Task: destroying the
    // outer frame detaches the inner one, which the teardown fixpoint
    // then reclaims too.
    bool inner_destroyed = false;
    struct Spawner
    {
        static Task<>
        inner(Simulator& sim, bool* destroyed)
        {
            DtorFlag sentinel(destroyed);
            for (;;)
                co_await delay(sim, 500);
        }
        static Task<>
        outer(Simulator& sim, bool* destroyed)
        {
            Task<> child = inner(sim, destroyed);
            for (;;)
                co_await delay(sim, 1000);
        }
    };
    {
        Simulator sim;
        Spawner::outer(sim, &inner_destroyed).detach();
        sim.runUntil(3000);
        EXPECT_FALSE(inner_destroyed);
    }
    EXPECT_TRUE(inner_destroyed);
}

} // namespace
} // namespace octo::sim
