/**
 * @file
 * The discrete-event simulation core.
 *
 * A Simulator owns a clock and a pending-event set. Events are plain
 * callbacks, coroutine resumptions (see task.hpp), pre-allocated
 * re-armable events (EventRef), or periodic events. Two events
 * scheduled for the same tick fire in scheduling order (FIFO), which
 * keeps the model deterministic.
 *
 * Implementation (DESIGN.md §11):
 *
 *  - A hierarchical timer wheel: two 4096-slot levels (level-0 slots
 *    span 2^16 ticks for a ~268 us horizon, level 1 reaches ~1.1 s);
 *    events beyond the horizon wait in an overflow min-heap and are
 *    admitted as the wheel turns. Scheduling and dispatch are O(1)
 *    amortized regardless of the pending-event count, and both levels'
 *    bucket heads (32 KB) stay cache-resident.
 *  - A pooled, intrusive event representation: fixed-size EventSlots
 *    allocated from a chunked free-list, with 64 bytes of inline
 *    storage for the callback. Steady-state scheduling performs zero
 *    heap allocations; capture-heavy callbacks (> 64 B) fall back to a
 *    heap-backed std::function and are counted (coldCallbacks()).
 *  - Determinism: events fire in strict (when, seq) order, identical
 *    to the historical global priority-queue core. Level-0 buckets are
 *    seq-sorted at dispatch, so cascading can never reorder same-tick
 *    events; the golden-report equivalence tests pin this byte-for-byte.
 *  - Domain tags: every event carries a Domain{node, device}; dispatch
 *    counts per-domain events (domainEvents()) and marks the partition
 *    boundary for a future conservative-lookahead parallel DES.
 */
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace octo::obs {
class Hub;
}

namespace octo::sim {

/**
 * The scheduling domain an event belongs to: the NUMA node whose
 * state it mutates and the device (NIC, SSD, poll plane...) it models.
 * {-1, -1} is the untagged default. Domains feed per-domain dispatch
 * counters and define the partition boundary a parallel DES would
 * synchronize across (QPI/PCIe link latency = conservative lookahead).
 */
struct Domain
{
    std::int8_t node = -1;
    std::int8_t device = -1;

    bool tagged() const { return node >= 0 || device >= 0; }

    friend bool
    operator==(Domain a, Domain b)
    {
        return a.node == b.node && a.device == b.device;
    }
};

/**
 * Handle to a pooled event slot: either a pre-allocated re-armable
 * event (makeEvent + schedule(when, ref)) or a periodic event
 * (schedulePeriodic). Generation-checked: a stale ref after release()
 * safely no-ops.
 */
struct EventRef
{
    std::uint32_t idx = 0xFFFFFFFFu;
    std::uint16_t gen = 0;

    bool valid() const { return idx != 0xFFFFFFFFu; }
};

/**
 * Discrete-event simulator: a clock plus a timer-wheel event core.
 *
 * The simulator is strictly single-threaded. All model components keep
 * a reference to it for scheduling and for reading the current time.
 */
class Simulator
{
  public:
    /** Inline callback storage; larger captures take the cold path. */
    static constexpr std::size_t kInlineBytes = 64;
    /** Slots added per pool growth (graceful, counted). */
    static constexpr std::size_t kChunkSlots = 1024;

    // ---- timer-wheel geometry (compile-time) -------------------------
    // Two levels of 2^12 slots. A level-0 slot spans 2^16 ticks
    // (65.5 ns): wide enough that a burst of same-window events shares
    // one bucket and one drain sort, narrow enough that the in-flight
    // batch stays short. Level 0 holds nearly every model delay
    // (service times, wire latencies, IRQ coalesce windows) in a single
    // filing; level 1 reaches ~1.1 s. Farther events wait in the
    // overflow heap. Each level's bucket heads take 16 KB, so inserts
    // hit cache where 2^16-slot levels (256 KB each) missed. A
    // narrow-level cascading wheel (Varghese-Lauck) would re-file each
    // microsecond-scale event through every level instead.
    static constexpr int kSlotShift = 16;
    static constexpr int kLevelBits = 12;
    /** Ticks per level-0 slot (2^16 ticks = 65.5 ns). */
    static constexpr Tick kSlotTicks = Tick{1} << kSlotShift;
    /** Level-0 reach: 2^28 ticks (~268 us). */
    static constexpr Tick kL0Horizon = kSlotTicks << kLevelBits;
    /** Wheel reach: 2^40 ticks (~1.1 s); the overflow heap holds the
     *  rest. */
    static constexpr Tick kWheelHorizon = kL0Horizon << kLevelBits;

    Simulator();
    ~Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule a callback at absolute time @p when (>= now; an
     *  earlier time is clamped to now and counted like a negative
     *  delay). */
    template <typename F>
        requires(!std::same_as<std::remove_cvref_t<F>, EventRef>)
    void
    schedule(Tick when, F&& fn)
    {
        scheduleTagged(clampWhen(when), currentDomain_,
                       std::forward<F>(fn));
    }

    /** Schedule a domain-tagged callback at absolute time @p when. */
    template <typename F>
    void
    schedule(Tick when, Domain d, F&& fn)
    {
        scheduleTagged(clampWhen(when), domainId(d), std::forward<F>(fn));
    }

    /** Schedule a callback @p delay ticks from now. */
    template <typename F>
        requires(!std::same_as<std::remove_cvref_t<F>, EventRef>)
    void
    scheduleIn(Tick delay, F&& fn)
    {
        scheduleTagged(now_ + clampDelay(delay), currentDomain_,
                       std::forward<F>(fn));
    }

    /** Schedule a domain-tagged callback @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, Domain d, F&& fn)
    {
        scheduleTagged(now_ + clampDelay(delay), domainId(d),
                       std::forward<F>(fn));
    }

    /**
     * Schedule a coroutine resumption @p delay ticks from now.
     *
     * @p detached, when provided, must point at the coroutine promise's
     * `detached` flag (stable for the frame's lifetime). It lets the
     * destructor reclaim parked frames that no Task owns (see
     * teardown notes on ~Simulator).
     */
    void
    scheduleResume(Tick delay, std::coroutine_handle<> h,
                   const bool* detached = nullptr)
    {
        const std::uint32_t idx = allocSlot();
        EventSlot& s = slotAt(idx);
        s.when = now_ + clampDelay(delay);
        s.seq = seq_++;
        s.period = 0;
        s.handle = h;
        s.detached = detached;
        s.invoke = nullptr;
        s.destroy = nullptr;
        s.kind = kResume | kPendingBit;
        s.domain = currentDomain_;
        insertScheduled(idx);
    }

    /**
     * Pre-allocate a re-armable event bound to @p fn. The slot lives
     * until release(); schedule(when, ref) arms it (at most one
     * outstanding occurrence), firing leaves it allocated for instant
     * zero-setup re-arming. The hot-IRQ path uses one per queue.
     */
    template <typename F>
    EventRef
    makeEvent(F&& fn, Domain d = {})
    {
        const std::uint32_t idx =
            makeCallbackSlot(std::forward<F>(fn), domainId(d));
        EventSlot& s = slotAt(idx);
        s.kind = kArmed;
        return EventRef{idx, s.gen};
    }

    /** Arm a pre-allocated event at absolute time @p when (>= now). */
    void schedule(Tick when, const EventRef& ev);

    /** Arm a pre-allocated event @p delay ticks from now. */
    void
    scheduleIn(Tick delay, const EventRef& ev)
    {
        schedule(now_ + clampDelay(delay), ev);
    }

    /**
     * Schedule @p fn to fire first at now + @p first_in and then every
     * @p interval ticks, drift-free (each occurrence is anchored to the
     * previous one's scheduled time, not its dispatch time). The event
     * keeps its single pooled slot across occurrences. Used by the
     * Sampler, HealthMonitor, chaos Oracle, and CPU scheduler ticks.
     */
    template <typename F>
    EventRef
    schedulePeriodic(Tick first_in, Tick interval, F&& fn,
                     Domain d = {})
    {
        assert(interval > 0);
        const std::uint32_t idx =
            makeCallbackSlot(std::forward<F>(fn), domainId(d));
        EventSlot& s = slotAt(idx);
        s.kind = kPeriodic | kPendingBit;
        s.when = now_ + clampDelay(first_in);
        s.seq = seq_++;
        s.period = interval;
        const EventRef ref{idx, s.gen};
        insertScheduled(idx);
        return ref;
    }

    /** True while @p ev is armed (scheduled and not yet fired). */
    bool pending(const EventRef& ev) const;

    /**
     * Disarm a pending occurrence. For periodic events this also stops
     * the cadence and frees the slot. @return true if an occurrence
     * was actually cancelled.
     */
    bool cancel(const EventRef& ev);

    /** Free a re-armable event's slot (cancelling it if pending). */
    void release(EventRef& ev);

    /** Run all events with timestamp <= @p t; the clock ends at
     *  max(now, t) — it never rewinds. */
    void runUntil(Tick t);

    /**
     * Run until the event queue drains or @p max_time is reached.
     * @return Number of events processed.
     */
    std::uint64_t run(Tick max_time = kTickPerSec * 3600);

    /** True if no events are pending. */
    bool idle() const { return pending_ == 0; }

    /** Number of events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** Times a negative delay or a past absolute time was clamped to
     *  now (a model bug; asserts in debug builds unless
     *  allowNegativeDelay()). */
    std::uint64_t negativeDelays() const { return negativeDelays_; }

    /** Callbacks too large for inline slot storage (heap fallback). */
    std::uint64_t coldCallbacks() const { return coldCallbacks_; }

    /** Pool growths beyond the initial chunk. */
    std::uint64_t poolGrowths() const { return poolGrowths_; }

    /** Total pooled event slots. */
    std::size_t poolCapacity() const
    {
        return chunks_.size() * kChunkSlots;
    }

    /** Slots currently allocated (pending + armed-idle + periodic). */
    std::size_t poolInUse() const { return liveSlots_; }

    /** Permit negative delays without the debug assert (tests). */
    void allowNegativeDelay(bool on) { allowNegativeDelay_ = on; }

    /** Register (or look up) a domain; id 0 is the untagged domain. */
    int
    domainId(Domain d)
    {
        const int key = domainKey(d);
        const std::uint8_t cached = domainTable_[key];
        if (cached != 0xFF)
            return cached;
        return registerDomain(d, key);
    }

    /** All domains seen so far; index == domain id. */
    const std::vector<Domain>& domains() const { return domains_; }

    /** Events dispatched for domain id @p id. */
    std::uint64_t
    domainEvents(std::size_t id) const
    {
        return id < domainCount_.size() ? domainCount_[id] : 0;
    }

    /** Sequential small device id for Domain::device assignment. */
    int allocDeviceId() { return nextDeviceId_++; }

    /**
     * Attach/detach an observability hub (metrics + tracing). Must be
     * attached *before* model components are constructed — they
     * register instruments and cache pointers at construction time.
     * The simulator only carries the pointer (no obs dependency);
     * components reach it via obs::hub()/metrics()/tracer().
     */
    void setHub(obs::Hub* h) { hub_ = h; }
    obs::Hub* hub() const { return hub_; }

  private:
    static constexpr int kSlots = 1 << kLevelBits;
    static constexpr int kL1Shift = kSlotShift + kLevelBits;   // 28
    static constexpr int kHorizonBits = kL1Shift + kLevelBits; // 40
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    // ---- event slots ------------------------------------------------
    // kind layout: low bits = kind enum, high bits = flags.
    static constexpr std::uint8_t kKindMask = 0x0F;
    static constexpr std::uint8_t kFree = 0;
    static constexpr std::uint8_t kCallback = 1;
    static constexpr std::uint8_t kResume = 2;
    static constexpr std::uint8_t kPeriodic = 3;
    static constexpr std::uint8_t kArmed = 4;
    static constexpr std::uint8_t kPendingBit = 0x40;
    static constexpr std::uint8_t kCancelBit = 0x80;

    struct EventSlot
    {
        Tick when;
        std::uint64_t seq;
        Tick period;
        std::coroutine_handle<> handle;
        const bool* detached;
        void (*invoke)(void*);
        void (*destroy)(void*);
        std::uint32_t next;
        std::uint16_t gen;
        std::uint8_t kind;
        std::uint8_t domain;
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    };

    /**
     * One wheel level: 4096 buckets with a two-tier occupancy bitmap
     * (top -> words[64]) so the next occupied bucket is found in at
     * most two bitmap loads. Because elapsed_ never passes a pending
     * deadline, occupied buckets always lie at or ahead of the current
     * position within the level's block — the search never wraps.
     */
    struct Level
    {
        static_assert(kSlots == 64 * 64, "two bitmap tiers of 64 bits");
        std::uint64_t top = 0;
        std::uint64_t words[kSlots / 64] = {};
        // Bucket lists are LIFO singly-linked stacks (head only): the
        // dispatch path re-sorts every drained bucket by (when, seq),
        // so insertion order inside a bucket carries no meaning and a
        // tail pointer would only double the insert's cache traffic.
        std::uint32_t head[kSlots];

        void
        mark(int slot)
        {
            const int w = slot >> 6;
            words[w] |= std::uint64_t{1} << (slot & 63);
            top |= std::uint64_t{1} << w;
        }

        void
        clear(int slot)
        {
            const int w = slot >> 6;
            words[w] &= ~(std::uint64_t{1} << (slot & 63));
            if (words[w] == 0)
                top &= ~(std::uint64_t{1} << w);
        }

        bool empty() const { return top == 0; }

        /** First occupied slot at index >= from, or -1. */
        int
        next(int from) const
        {
            const int w = from >> 6;
            const std::uint64_t m =
                words[w] & (~std::uint64_t{0} << (from & 63));
            if (m != 0)
                return (w << 6) | std::countr_zero(m);
            const std::uint64_t tm =
                w == 63 ? 0 : top & (~std::uint64_t{0} << (w + 1));
            if (tm == 0)
                return -1;
            const int w2 = std::countr_zero(tm);
            return (w2 << 6) | std::countr_zero(words[w2]);
        }
    };

    // Nearly every run fits in the first chunk; keep its base pointer
    // flat so the hot path is one indexed load, not two indirections.
    EventSlot&
    slotAt(std::uint32_t idx)
    {
        return idx < kChunkSlots ? chunk0_[idx]
                                 : chunks_[idx >> 10][idx & 1023];
    }

    const EventSlot&
    slotAt(std::uint32_t idx) const
    {
        return idx < kChunkSlots ? chunk0_[idx]
                                 : chunks_[idx >> 10][idx & 1023];
    }

    std::uint32_t
    allocSlot()
    {
        if (freeHead_ == kNil)
            addChunk();
        const std::uint32_t idx = freeHead_;
        EventSlot& s = slotAt(idx);
        freeHead_ = s.next;
        ++liveSlots_;
        return idx;
    }

    /** Destroy any stored callable and return the slot to the pool. */
    void
    freeSlot(std::uint32_t idx)
    {
        EventSlot& s = slotAt(idx);
        if (s.destroy != nullptr)
            s.destroy(s.buf);
        s.invoke = nullptr;
        s.destroy = nullptr;
        s.handle = nullptr;
        s.detached = nullptr;
        s.kind = kFree;
        ++s.gen;
        s.next = freeHead_;
        freeHead_ = idx;
        --liveSlots_;
    }

    void addChunk();

    /** Build a Callback-family slot with @p fn stored inline (or in a
     *  heap-backed std::function when it exceeds kInlineBytes). */
    template <typename F>
    std::uint32_t
    makeCallbackSlot(F&& fn, int domain_id)
    {
        using Fd = std::decay_t<F>;
        const std::uint32_t idx = allocSlot();
        EventSlot& s = slotAt(idx);
        if constexpr (sizeof(Fd) <= kInlineBytes &&
                      alignof(Fd) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(s.buf)) Fd(std::forward<F>(fn));
            s.invoke = [](void* p) {
                (*std::launder(reinterpret_cast<Fd*>(p)))();
            };
            if constexpr (std::is_trivially_destructible_v<Fd>) {
                s.destroy = nullptr;
            } else {
                s.destroy = [](void* p) {
                    std::launder(reinterpret_cast<Fd*>(p))->~Fd();
                };
            }
        } else {
            // Cold path: capture-heavy callback. The function object
            // itself fits inline; its capture state goes to the heap.
            using Cold = std::function<void()>;
            static_assert(sizeof(Cold) <= kInlineBytes);
            ::new (static_cast<void*>(s.buf))
                Cold(std::forward<F>(fn));
            s.invoke = [](void* p) {
                (*std::launder(reinterpret_cast<Cold*>(p)))();
            };
            s.destroy = [](void* p) {
                std::launder(reinterpret_cast<Cold*>(p))->~Cold();
            };
            ++coldCallbacks_;
        }
        s.handle = nullptr;
        s.detached = nullptr;
        s.period = 0;
        s.domain = static_cast<std::uint8_t>(domain_id);
        return idx;
    }

    template <typename F>
    void
    scheduleTagged(Tick when, int domain_id, F&& fn)
    {
        const std::uint32_t idx =
            makeCallbackSlot(std::forward<F>(fn), domain_id);
        EventSlot& s = slotAt(idx);
        s.kind = kCallback | kPendingBit;
        s.when = when;
        s.seq = seq_++;
        insertScheduled(idx);
    }

    Tick
    clampDelay(Tick delay)
    {
        if (delay < 0) [[unlikely]] {
            ++negativeDelays_;
            assert(allowNegativeDelay_ &&
                   "negative delay scheduled (model bug): clamped to 0");
            return 0;
        }
        return delay;
    }

    /** Clamp a past absolute time to now, counted as a negative delay:
     *  filing it behind the wheel's position would rewind the clock or
     *  index before the level's bucket array. */
    Tick
    clampWhen(Tick when)
    {
        return when < now_ ? now_ + clampDelay(when - now_) : when;
    }

    // ---- wheel plumbing (simulator.cpp) -----------------------------
    void insertScheduled(std::uint32_t idx);
    void wheelInsert(std::uint32_t idx);
    bool collectNext(Tick limit);
    std::uint64_t dispatchBatch(Tick limit);
    void fire(std::uint32_t idx);
    void bucketInsert(Level& level, int slot, std::uint32_t idx);
    void sortDrain();
    void sortedDrainInsert(std::uint32_t idx);
    void overflowPush(std::uint32_t idx);
    std::uint32_t overflowPop();
    bool removePending(std::uint32_t idx);
    int registerDomain(Domain d, int key);

    static int
    domainKey(Domain d)
    {
        assert(d.node >= -1 && d.node < 15);
        assert(d.device >= -1 && d.device < 15);
        return ((d.node + 1) & 0xF) << 4 | ((d.device + 1) & 0xF);
    }

    // ---- state ------------------------------------------------------
    std::vector<std::unique_ptr<EventSlot[]>> chunks_;
    EventSlot* chunk0_ = nullptr;
    std::uint32_t freeHead_ = kNil;
    Level level0_;
    Level level1_;
    std::vector<std::uint32_t> overflow_; ///< (when, seq) min-heap.
    std::vector<std::uint32_t> drain_;    ///< In-flight batch, sorted
                                          ///< by (when, seq).

    Tick now_ = 0;
    Tick elapsed_ = 0; ///< Wheel clock: never exceeds the minimal
                       ///< pending deadline, so every insert files
                       ///< at when >= now_ >= elapsed_.
    bool draining_ = false;
    Tick drainWinEnd_ = 0;   ///< End of the level-0 window in flight.
    std::size_t drainPos_ = 0;
    std::uint32_t firing_ = kNil; ///< Slot being dispatched.

    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t pending_ = 0;
    std::size_t liveSlots_ = 0;
    std::uint64_t negativeDelays_ = 0;
    std::uint64_t coldCallbacks_ = 0;
    std::uint64_t poolGrowths_ = 0;
    bool allowNegativeDelay_ = false;
    bool tearingDown_ = false;

    std::uint8_t currentDomain_ = 0;
    std::array<std::uint8_t, 256> domainTable_;
    std::vector<Domain> domains_;
    std::vector<std::uint64_t> domainCount_;
    int nextDeviceId_ = 0;

    obs::Hub* hub_ = nullptr;
};

} // namespace octo::sim
