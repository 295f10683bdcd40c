/**
 * @file
 * Synchronization primitives for simulation coroutines: bounded channels,
 * counting semaphores, and broadcast signals.
 *
 * All wakeups are funnelled through the simulator's event queue at the
 * current tick rather than resumed inline, so that same-tick processes
 * interleave deterministically and stack depth stays bounded.
 *
 * Waiters record the suspending coroutine's detached-flag address
 * (detail::detachedFlag) alongside the handle; wakeup events carry it
 * into the simulator's slot pool so teardown can reclaim parked frames
 * nobody owns (see ~Simulator).
 */
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace octo::sim {

/**
 * Bounded multi-producer multi-consumer FIFO channel.
 *
 * push() suspends while the buffer is full; pop() suspends while it is
 * empty. Useful for descriptor rings, wires, and work queues.
 */
template <typename T>
class Channel
{
  public:
    Channel(Simulator& sim, std::size_t capacity)
        : sim_(sim), capacity_(capacity)
    {
        assert(capacity > 0);
    }

    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    std::size_t size() const { return buf_.size(); }
    bool empty() const { return buf_.empty(); }
    std::size_t capacity() const { return capacity_; }

    /** Non-blocking push; false if the buffer is full. */
    bool
    tryPush(T v)
    {
        if (!popWaiters_.empty()) {
            deliver(std::move(v));
            return true;
        }
        if (buf_.size() >= capacity_)
            return false;
        buf_.push_back(std::move(v));
        return true;
    }

    /** Oldest buffered element, or nullptr when empty. */
    const T*
    peek() const
    {
        return buf_.empty() ? nullptr : &buf_.front();
    }

    /** Non-blocking pop; empty optional if nothing buffered. */
    std::optional<T>
    tryPop()
    {
        if (buf_.empty())
            return std::nullopt;
        T v = std::move(buf_.front());
        buf_.pop_front();
        admitPushWaiter();
        return v;
    }

    class PushAwaiter
    {
      public:
        PushAwaiter(Channel& ch, T v) : ch_(ch), value_(std::move(v)) {}

        bool
        await_ready()
        {
            // Only move the value out once success is guaranteed.
            if (ch_.popWaiters_.empty() &&
                ch_.buf_.size() >= ch_.capacity_) {
                return false;
            }
            ch_.tryPush(std::move(value_));
            return true;
        }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            ch_.pushWaiters_.push_back(PushWaiter{
                h, detail::detachedFlag(h), std::move(value_)});
        }

        void await_resume() const {}

      private:
        Channel& ch_;
        T value_;
    };

    class PopAwaiter
    {
      public:
        explicit PopAwaiter(Channel& ch) : ch_(ch) {}

        bool
        await_ready()
        {
            slot_ = ch_.tryPop();
            return slot_.has_value();
        }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            ch_.popWaiters_.push_back(
                PopWaiter{h, detail::detachedFlag(h), &slot_});
        }

        T
        await_resume()
        {
            return std::move(*slot_);
        }

      private:
        Channel& ch_;
        std::optional<T> slot_;
    };

    /** Awaitable push: suspends while the channel is full. */
    PushAwaiter
    push(T v)
    {
        return PushAwaiter{*this, std::move(v)};
    }

    /** Awaitable pop: suspends while the channel is empty. */
    PopAwaiter
    pop()
    {
        return PopAwaiter{*this};
    }

  private:
    struct PushWaiter
    {
        std::coroutine_handle<> h;
        const bool* det;
        T value;
    };

    struct PopWaiter
    {
        std::coroutine_handle<> h;
        const bool* det;
        std::optional<T>* slot;
    };

    /** Hand @p v directly to the oldest waiting consumer. */
    void
    deliver(T v)
    {
        PopWaiter w = popWaiters_.front();
        popWaiters_.pop_front();
        w.slot->emplace(std::move(v));
        sim_.scheduleResume(0, w.h, w.det);
    }

    /** A buffer slot freed up: admit the oldest waiting producer. */
    void
    admitPushWaiter()
    {
        if (pushWaiters_.empty())
            return;
        PushWaiter w = std::move(pushWaiters_.front());
        pushWaiters_.pop_front();
        buf_.push_back(std::move(w.value));
        sim_.scheduleResume(0, w.h, w.det);
    }

    Simulator& sim_;
    std::size_t capacity_;
    std::deque<T> buf_;
    std::deque<PushWaiter> pushWaiters_;
    std::deque<PopWaiter> popWaiters_;
};

/**
 * Counting semaphore. acquire() suspends while the count is zero.
 * Models finite credit pools (TCP windows, queue depths, ring slots).
 */
class Semaphore
{
  public:
    Semaphore(Simulator& sim, std::int64_t initial)
        : sim_(sim), count_(initial)
    {
    }

    Semaphore(const Semaphore&) = delete;
    Semaphore& operator=(const Semaphore&) = delete;

    std::int64_t count() const { return count_; }

    /** Release @p n credits, admitting waiters FIFO. */
    void
    release(std::int64_t n = 1)
    {
        count_ += n;
        while (!waiters_.empty() && count_ >= waiters_.front().need) {
            Waiter w = waiters_.front();
            waiters_.pop_front();
            count_ -= w.need;
            sim_.scheduleResume(0, w.h, w.det);
        }
    }

    /** Non-blocking acquire; false if insufficient credits (or waiters
     *  are queued ahead, preserving FIFO). */
    bool
    tryAcquire(std::int64_t n = 1)
    {
        if (count_ >= n && waiters_.empty()) {
            count_ -= n;
            return true;
        }
        return false;
    }

    class AcquireAwaiter
    {
      public:
        AcquireAwaiter(Semaphore& s, std::int64_t need)
            : s_(s), need_(need)
        {
        }

        bool
        await_ready() const
        {
            if (s_.count_ >= need_ && s_.waiters_.empty()) {
                s_.count_ -= need_;
                return true;
            }
            return false;
        }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            s_.waiters_.push_back(
                Waiter{h, detail::detachedFlag(h), need_});
        }

        void await_resume() const {}

      private:
        Semaphore& s_;
        std::int64_t need_;
    };

    /** Awaitable acquire of @p n credits. */
    AcquireAwaiter
    acquire(std::int64_t n = 1)
    {
        return AcquireAwaiter{*this, n};
    }

  private:
    struct Waiter
    {
        std::coroutine_handle<> h;
        const bool* det;
        std::int64_t need;
    };

    Simulator& sim_;
    std::int64_t count_;
    std::deque<Waiter> waiters_;
};

/**
 * Re-usable signal: wait() suspends until the next notify(); notify()
 * wakes every currently-suspended waiter. Models condition-variable
 * style "data arrived" wakeups.
 */
class Signal
{
  public:
    explicit Signal(Simulator& sim) : sim_(sim) {}

    Signal(const Signal&) = delete;
    Signal& operator=(const Signal&) = delete;

    /** Wake all waiters suspended at this moment. */
    void
    notify()
    {
        for (const Waiter& w : waiters_)
            sim_.scheduleResume(0, w.h, w.det);
        waiters_.clear();
    }

    class WaitAwaiter
    {
      public:
        explicit WaitAwaiter(Signal& s) : s_(s) {}

        bool await_ready() const { return false; }

        template <typename P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            s_.waiters_.push_back(Waiter{h, detail::detachedFlag(h)});
        }

        void await_resume() const {}

      private:
        Signal& s_;
    };

    WaitAwaiter
    wait()
    {
        return WaitAwaiter{*this};
    }

  private:
    struct Waiter
    {
        std::coroutine_handle<> h;
        const bool* det;
    };

    Simulator& sim_;
    std::deque<Waiter> waiters_;
};

} // namespace octo::sim
