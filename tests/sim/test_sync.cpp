/**
 * @file
 * Unit tests for coroutine synchronization: channels and semaphores.
 */
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace octo::sim {
namespace {

TEST(Channel, TryPushTryPop)
{
    Simulator sim;
    Channel<int> ch(sim, 2);
    EXPECT_TRUE(ch.tryPush(1));
    EXPECT_TRUE(ch.tryPush(2));
    EXPECT_FALSE(ch.tryPush(3)); // full
    EXPECT_EQ(ch.tryPop().value(), 1);
    EXPECT_EQ(ch.tryPop().value(), 2);
    EXPECT_FALSE(ch.tryPop().has_value());
}

TEST(Channel, PopBlocksUntilPush)
{
    Simulator sim;
    Channel<int> ch(sim, 4);
    int got = 0;
    Tick got_at = -1;
    auto consumer = spawn([&]() -> Task<> {
        got = co_await ch.pop();
        got_at = sim.now();
    });
    auto producer = spawn([&]() -> Task<> {
        co_await delay(sim, 100);
        co_await ch.push(99);
    });
    sim.run();
    EXPECT_EQ(got, 99);
    EXPECT_EQ(got_at, 100);
    EXPECT_TRUE(consumer.done());
    EXPECT_TRUE(producer.done());
}

TEST(Channel, PushBlocksWhenFull)
{
    Simulator sim;
    Channel<int> ch(sim, 1);
    std::vector<Tick> push_times;
    auto producer = spawn([&]() -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await ch.push(i);
            push_times.push_back(sim.now());
        }
    });
    auto consumer = spawn([&]() -> Task<> {
        for (int i = 0; i < 3; ++i) {
            co_await delay(sim, 50);
            auto v = co_await ch.pop();
            EXPECT_EQ(v, i);
        }
    });
    sim.run();
    ASSERT_EQ(push_times.size(), 3u);
    EXPECT_EQ(push_times[0], 0);  // buffered immediately
    EXPECT_EQ(push_times[1], 50); // admitted when slot freed
    EXPECT_EQ(push_times[2], 100);
    EXPECT_TRUE(producer.done());
    EXPECT_TRUE(consumer.done());
}

TEST(Channel, FifoAcrossManyItems)
{
    Simulator sim;
    Channel<int> ch(sim, 3);
    std::vector<int> seen;
    auto producer = spawn([&]() -> Task<> {
        for (int i = 0; i < 100; ++i)
            co_await ch.push(i);
    });
    auto consumer = spawn([&]() -> Task<> {
        for (int i = 0; i < 100; ++i) {
            int v = co_await ch.pop();
            seen.push_back(v);
            co_await delay(sim, 1);
        }
    });
    sim.run();
    ASSERT_EQ(seen.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(seen[i], i);
    EXPECT_TRUE(producer.done() && consumer.done());
}

TEST(Channel, MultipleConsumersServedFifo)
{
    Simulator sim;
    Channel<int> ch(sim, 4);
    std::vector<int> by_consumer(2, -1);
    auto mk = [&](int idx) -> Task<> {
        by_consumer[idx] = co_await ch.pop();
    };
    auto c0 = mk(0);
    auto c1 = mk(1);
    auto producer = spawn([&]() -> Task<> {
        co_await delay(sim, 10);
        co_await ch.push(100);
        co_await ch.push(200);
    });
    sim.run();
    EXPECT_EQ(by_consumer[0], 100); // first waiter gets first value
    EXPECT_EQ(by_consumer[1], 200);
    EXPECT_TRUE(c0.done() && c1.done() && producer.done());
}

TEST(Semaphore, AcquireReleaseBasic)
{
    Simulator sim;
    Semaphore sem(sim, 2);
    std::vector<Tick> acquired_at;
    auto worker = [&]() -> Task<> {
        co_await sem.acquire();
        acquired_at.push_back(sim.now());
        co_await delay(sim, 100);
        sem.release();
    };
    auto w0 = worker();
    auto w1 = worker();
    auto w2 = worker(); // must wait for a release at t=100
    sim.run();
    ASSERT_EQ(acquired_at.size(), 3u);
    EXPECT_EQ(acquired_at[0], 0);
    EXPECT_EQ(acquired_at[1], 0);
    EXPECT_EQ(acquired_at[2], 100);
    EXPECT_TRUE(w0.done() && w1.done() && w2.done());
}

TEST(Semaphore, BulkCreditsRespectFifo)
{
    Simulator sim;
    Semaphore sem(sim, 0);
    std::vector<int> order;
    auto need = [&](int id, int n) -> Task<> {
        co_await sem.acquire(n);
        order.push_back(id);
    };
    auto big = need(1, 10);
    auto small = need(2, 1); // queued behind the big request
    auto t = spawn([&]() -> Task<> {
        co_await delay(sim, 5);
        sem.release(10); // admits the big one first (FIFO), not small
        co_await delay(sim, 5);
        sem.release(1);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(big.done() && small.done() && t.done());
}

TEST(Semaphore, AcquireBypassDeniedWhenWaitersQueued)
{
    Simulator sim;
    Semaphore sem(sim, 0);
    std::vector<int> order;
    auto first = spawn([&]() -> Task<> {
        co_await sem.acquire(5);
        order.push_back(1);
    });
    auto second = spawn([&]() -> Task<> {
        co_await delay(sim, 1);
        sem.release(2); // not enough for the 5-credit waiter
        co_await sem.acquire(1); // must queue behind it, not steal
        order.push_back(2);
    });
    auto third = spawn([&]() -> Task<> {
        co_await delay(sim, 2);
        sem.release(4); // 6 total: first takes 5, second takes 1
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(first.done() && second.done() && third.done());
}

} // namespace
} // namespace octo::sim
