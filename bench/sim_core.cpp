/**
 * @file
 * Event-core microbenchmark: raw schedule/dispatch throughput of the
 * timer-wheel simulator, isolated from any model code.
 *
 * Scenarios:
 *  - hot_window:    zero/near-delay chains (the softirq/DMA shape) —
 *                   events land in the level-0 window being drained.
 *  - short_delays:  exponential-ish ns..us delays, all level 0.
 *  - mixed_horizon: delays spanning level 0, level 1, and the
 *                   overflow heap, exercising cascade and admission.
 *  - periodic:      many schedulePeriodic cadences firing together.
 *  - coroutine:     delay-loop resume path through pooled frames.
 *
 * Each benchmark reports events/sec ("ev_per_s"); the CI floor check
 * (tools/check_sim_core.py) pins a minimum on the hot paths so an
 * event-core regression fails the build rather than landing silently.
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using octo::sim::EventRef;
using octo::sim::Simulator;
using octo::sim::Task;
using octo::sim::Tick;

constexpr Tick kL0Horizon = Simulator::kL0Horizon;
constexpr Tick kWheelHorizon = Simulator::kWheelHorizon;
/** BM_ShortDelays' delay range: 64 level-0 slots. */
constexpr Tick kShortSpan = Simulator::kSlotTicks * 64;
static_assert(kShortSpan <= kL0Horizon && kL0Horizon * 256 <= kWheelHorizon);

/** xorshift: cheap deterministic delay sequence (no <random> cost). */
struct Rng
{
    std::uint64_t s = 0x9E3779B97F4A7C15ull;
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

void
reportEvents(benchmark::State& state, std::uint64_t total_events)
{
    state.counters["ev_per_s"] = benchmark::Counter(
        static_cast<double>(total_events),
        benchmark::Counter::kIsRate);
}

/** Self-rescheduling callback chains with tiny delays: the dispatch
 *  fast path (sorted-drain insert, no wheel traffic). */
void
BM_HotWindow(benchmark::State& state)
{
    const int chains = static_cast<int>(state.range(0));
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t left = kEventsPerIter;
        struct Chain
        {
            Simulator& sim;
            std::uint64_t& left;
            Tick d;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                sim.scheduleIn(d, *this);
            }
        };
        for (int c = 0; c < chains; ++c)
            sim.scheduleIn(c, Chain{sim, left, static_cast<Tick>(c % 3)});
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_HotWindow)->Arg(1)->Arg(16);

/** Short random delays: level-0 filings across many slots, mostly
 *  past the window in flight. */
void
BM_ShortDelays(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng;
        std::uint64_t left = kEventsPerIter;
        struct Hop
        {
            Simulator& sim;
            std::uint64_t& left;
            Rng& rng;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                // Up to 64 level-0 slots ahead: always inside the
                // level-0 horizon.
                sim.scheduleIn(static_cast<Tick>(rng.next() &
                                                 (kShortSpan - 1)),
                               *this);
            }
        };
        for (int c = 0; c < 32; ++c)
            sim.scheduleIn(c, Hop{sim, left, rng});
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_ShortDelays);

/** Delays spanning all three tiers (level 0 / level 1 / overflow). */
void
BM_MixedHorizon(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 100000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        Rng rng;
        std::uint64_t left = kEventsPerIter;
        struct Hop
        {
            Simulator& sim;
            std::uint64_t& left;
            Rng& rng;
            void
            operator()() const
            {
                if (left == 0)
                    return;
                --left;
                const std::uint64_t r = rng.next();
                Tick d;
                switch (r & 7) {
                  case 0: // level 1: 2..256 level-0 horizons out
                    d = static_cast<Tick>((r >> 8) &
                                          (kL0Horizon * 256 - 1)) |
                        (kL0Horizon * 2);
                    break;
                  case 1: // overflow heap (beyond the wheel horizon)
                    d = static_cast<Tick>((r >> 8) & 0xFFFF) |
                        (kWheelHorizon * 2);
                    break;
                  default: // level 0
                    d = static_cast<Tick>(r & (kL0Horizon / 16 - 1));
                    break;
                }
                sim.scheduleIn(d, *this);
            }
        };
        for (int c = 0; c < 16; ++c)
            sim.scheduleIn(c, Hop{sim, left, rng});
        sim.run(Tick{1} << 62);
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_MixedHorizon);

/** Many periodic cadences: the Sampler/HealthMonitor/poll-tick shape. */
void
BM_Periodic(benchmark::State& state)
{
    const int timers = static_cast<int>(state.range(0));
    constexpr std::uint64_t kTicksPerIter = 1u << 22;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t fired = 0;
        std::vector<EventRef> refs;
        refs.reserve(static_cast<std::size_t>(timers));
        for (int t = 0; t < timers; ++t) {
            refs.push_back(sim.schedulePeriodic(
                t + 1, 64 + (t % 1024), [&fired] { ++fired; }));
        }
        sim.runUntil(kTicksPerIter);
        for (EventRef& r : refs)
            sim.release(r);
        benchmark::DoNotOptimize(fired);
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_Periodic)->Arg(64);

/** Coroutine delay loops: resume slots + pooled frames. */
void
BM_CoroutineResume(benchmark::State& state)
{
    constexpr std::uint64_t kEventsPerIter = 200000;
    std::uint64_t total = 0;
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t left = kEventsPerIter;
        auto loop = [](Simulator& s, std::uint64_t& l) -> Task<> {
            Rng rng;
            while (l > 0) {
                --l;
                co_await octo::sim::delay(
                    s, static_cast<Tick>(rng.next() & 0xFFF));
            }
        };
        std::vector<Task<>> tasks;
        for (int c = 0; c < 16; ++c)
            tasks.push_back(loop(sim, left));
        sim.run();
        total += sim.eventsProcessed();
    }
    reportEvents(state, total);
}
BENCHMARK(BM_CoroutineResume);

} // namespace

BENCHMARK_MAIN();
