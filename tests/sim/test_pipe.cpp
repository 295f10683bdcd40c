/**
 * @file
 * Unit tests for the bandwidth-server Pipe: service times, queueing,
 * latency, and accounting.
 */
#include <gtest/gtest.h>

#include <vector>

#include "sim/pipe.hpp"
#include "sim/stats.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace octo::sim {
namespace {

TEST(Pipe, ServiceTimeMatchesRate)
{
    Simulator sim;
    Pipe pipe(sim, 100.0); // 100 Gb/s
    Tick done_at = -1;
    auto t = spawn([&]() -> Task<> {
        co_await pipe.transfer(1250); // 100 ns at 100 Gb/s
        done_at = sim.now();
    });
    sim.run();
    EXPECT_EQ(done_at, fromNs(100));
    EXPECT_EQ(pipe.totalBytes(), 1250u);
    EXPECT_EQ(pipe.transfers(), 1u);
    EXPECT_TRUE(t.done());
}

TEST(Pipe, PropagationLatencyAdds)
{
    Simulator sim;
    Pipe pipe(sim, 100.0, fromNs(500));
    Tick done_at = -1;
    auto t = spawn([&]() -> Task<> {
        co_await pipe.transfer(1250);
        done_at = sim.now();
    });
    sim.run();
    EXPECT_EQ(done_at, fromNs(600));
    EXPECT_TRUE(t.done());
}

TEST(Pipe, ConcurrentTransfersQueueFifo)
{
    Simulator sim;
    Pipe pipe(sim, 8.0); // 1 byte per ns
    std::vector<Tick> done;
    auto mk = [&](std::uint64_t bytes) -> Task<> {
        co_await pipe.transfer(bytes);
        done.push_back(sim.now());
    };
    auto a = mk(100);
    auto b = mk(100); // queues behind a
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], fromNs(100));
    EXPECT_EQ(done[1], fromNs(200));
    EXPECT_TRUE(a.done() && b.done());
}

TEST(Pipe, BacklogReflectsQueueing)
{
    Simulator sim;
    Pipe pipe(sim, 8.0);
    pipe.reserve(1000); // 1000 ns of service booked
    EXPECT_EQ(pipe.backlog(), fromNs(1000));
    sim.schedule(fromNs(400), [&] {
        EXPECT_EQ(pipe.backlog(), fromNs(600));
    });
    sim.runUntil(fromNs(1000));
    EXPECT_EQ(pipe.backlog(), 0);
}

TEST(Pipe, IdleGapsDoNotAccrueBusyTime)
{
    Simulator sim;
    Pipe pipe(sim, 8.0);
    auto t = spawn([&]() -> Task<> {
        co_await pipe.transfer(100);  // busy 0..100ns
        co_await delay(sim, fromNs(300));
        co_await pipe.transfer(100);  // busy 400..500ns
    });
    sim.run();
    EXPECT_EQ(pipe.busyTime(), fromNs(200));
    EXPECT_EQ(sim.now(), fromNs(500));
    EXPECT_TRUE(t.done());
}

TEST(Pipe, TransferReturnsExperiencedLatency)
{
    Simulator sim;
    Pipe pipe(sim, 8.0, fromNs(10));
    std::vector<Tick> lat;
    auto mk = [&]() -> Task<> {
        Tick l = co_await pipe.transfer(100);
        lat.push_back(l);
    };
    auto a = mk();
    auto b = mk(); // queued: sees 100 ns extra
    sim.run();
    ASSERT_EQ(lat.size(), 2u);
    EXPECT_EQ(lat[0], fromNs(110));
    EXPECT_EQ(lat[1], fromNs(210));
    EXPECT_TRUE(a.done() && b.done());
}

TEST(Pipe, RateChangeAffectsFutureTransfers)
{
    Simulator sim;
    Pipe pipe(sim, 8.0);
    Tick first = -1, second = -1;
    auto t = spawn([&]() -> Task<> {
        co_await pipe.transfer(100);
        first = sim.now();
        pipe.setRateGbps(16.0);
        co_await pipe.transfer(100);
        second = sim.now();
    });
    sim.run();
    EXPECT_EQ(first, fromNs(100));
    EXPECT_EQ(second, fromNs(150));
    EXPECT_TRUE(t.done());
}

TEST(Pipe, TransferCompletionFiresInSequenceOrder)
{
    // A transfer's completion draws its sequence number when it is
    // awaited: among events due at the same tick it fires after those
    // scheduled before it and before those scheduled after it.
    Simulator sim;
    Pipe pipe(sim, 100.0);
    const Tick done = fromNs(100);
    std::vector<int> order;
    sim.schedule(done, [&] { order.push_back(0); });
    auto t = spawn([&]() -> Task<> {
        co_await pipe.transfer(1250);
        order.push_back(1);
    });
    sim.schedule(done, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(sim.now(), done);
    EXPECT_TRUE(t.done());
}

TEST(DuplexLink, DirectionsAreIndependent)
{
    Simulator sim;
    DuplexLink link(sim, 8.0, 0, "qpi");
    Tick fwd_done = -1, bwd_done = -1;
    auto a = spawn([&]() -> Task<> {
        co_await link.forward().transfer(100);
        fwd_done = sim.now();
    });
    auto b = spawn([&]() -> Task<> {
        co_await link.backward().transfer(100);
        bwd_done = sim.now();
    });
    sim.run();
    EXPECT_EQ(fwd_done, fromNs(100)); // no cross-direction queueing
    EXPECT_EQ(bwd_done, fromNs(100));
    EXPECT_TRUE(a.done() && b.done());
}

TEST(Stats, GbpsConversion)
{
    // 12.5 GB transferred over 1 s = 100 Gb/s.
    EXPECT_DOUBLE_EQ(toGbps(12'500'000'000ull, kTickPerSec), 100.0);
    EXPECT_DOUBLE_EQ(toGBps(12'500'000'000ull, kTickPerSec), 12.5);
}

} // namespace
} // namespace octo::sim
