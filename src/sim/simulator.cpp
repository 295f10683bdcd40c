#include "sim/simulator.hpp"

#include <algorithm>

namespace octo::sim {

namespace {

/** Start of the 2^shift-tick window holding @p when. */
constexpr Tick
windowStart(Tick when, int shift)
{
    return static_cast<Tick>(
        (static_cast<std::uint64_t>(when) >> shift) << shift);
}

} // namespace

Simulator::Simulator()
{
    std::fill_n(level0_.head, kSlots, kNil);
    std::fill_n(level1_.head, kSlots, kNil);
    domainTable_.fill(0xFF);
    domains_.push_back(Domain{}); // id 0: untagged
    domainCount_.push_back(0);
    domainTable_[static_cast<std::size_t>(domainKey(Domain{}))] = 0;
    addChunk();
    poolGrowths_ = 0; // the initial chunk is not a growth
}

/**
 * Teardown. Pending callbacks are destroyed without running. Pending
 * coroutine resumptions would leak their frames (the historical
 * behaviour the sanitizer leg had to suppress): a parked frame owns
 * its captures and locals and nothing else frees them. The pool lets
 * us do better — every detached frame (no Task owns it, see task.hpp)
 * whose resume is parked here is destroyed directly. This runs to a
 * fixpoint because destroying one frame can release (and thereby
 * detach) frames it owns. Remaining exceptions, documented: frames
 * still owned by a live Task object (that Task's destructor handles
 * them) and frames parked on sync-primitive wait queues
 * (Channel/Semaphore/Signal hold no timer event to find here).
 */
Simulator::~Simulator()
{
    tearingDown_ = true;
    bool progress = true;
    while (progress) {
        progress = false;
        const auto cap = static_cast<std::uint32_t>(poolCapacity());
        for (std::uint32_t i = 0; i < cap; ++i) {
            EventSlot& s = slotAt(i);
            if ((s.kind & kKindMask) != kResume)
                continue;
            if (s.detached == nullptr || !*s.detached)
                continue;
            const std::coroutine_handle<> h = s.handle;
            freeSlot(i); // clear bookkeeping before the destroy
            --pending_;  // may detach further parked frames below
            h.destroy();
            progress = true;
        }
    }
    // Destroy remaining stored callables (never run).
    const auto cap = static_cast<std::uint32_t>(poolCapacity());
    for (std::uint32_t i = 0; i < cap; ++i) {
        EventSlot& s = slotAt(i);
        if ((s.kind & kKindMask) != kFree && s.destroy != nullptr) {
            s.destroy(s.buf);
            s.destroy = nullptr;
        }
    }
}

void
Simulator::addChunk()
{
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSlots));
    EventSlot* slots = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkSlots; ++i) {
        slots[i].kind = kFree;
        slots[i].gen = 0;
        slots[i].invoke = nullptr;
        slots[i].destroy = nullptr;
        slots[i].handle = nullptr;
        slots[i].detached = nullptr;
        slots[i].next = (i + 1 < kChunkSlots)
                            ? base + static_cast<std::uint32_t>(i) + 1
                            : freeHead_;
    }
    freeHead_ = base;
    chunk0_ = chunks_.front().get();
    ++poolGrowths_;
}

int
Simulator::registerDomain(Domain d, int key)
{
    const int id = static_cast<int>(domains_.size());
    assert(id < 255 && "domain id space exhausted");
    domains_.push_back(d);
    domainCount_.push_back(0);
    domainTable_[static_cast<std::size_t>(key)] =
        static_cast<std::uint8_t>(id);
    return id;
}

/**
 * File a slot whose when/seq are already set into the pending set.
 * Events landing inside the level-0 window currently being dispatched
 * are placed straight into the in-flight batch at their sorted
 * position, so nested zero-delay scheduling — the softirq/DMA hot
 * path — never touches the wheel at all.
 */
void
Simulator::insertScheduled(std::uint32_t idx)
{
    ++pending_;
    EventSlot& s = slotAt(idx);
    assert(s.when >= now_);
    if (draining_ && s.when < drainWinEnd_) {
        sortedDrainInsert(idx);
        return;
    }
    wheelInsert(idx);
}

/** Place @p idx into the in-flight batch, keeping positions past
 *  drainPos_ sorted by (when, seq). New events carry the largest seq,
 *  so they land after every existing entry of the same tick. */
void
Simulator::sortedDrainInsert(std::uint32_t idx)
{
    const Tick when = slotAt(idx).when;
    std::size_t j = drain_.size();
    while (j > drainPos_ + 1 && slotAt(drain_[j - 1]).when > when)
        --j;
    drain_.insert(drain_.begin() + static_cast<std::ptrdiff_t>(j),
                  idx);
}

void
Simulator::bucketInsert(Level& level, int slot, std::uint32_t idx)
{
    // LIFO push; the drain sort restores (when, seq) order.
    std::uint32_t& h = level.head[slot];
    if (h == kNil)
        level.mark(slot);
    slotAt(idx).next = h;
    h = idx;
}

void
Simulator::wheelInsert(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    const std::uint64_t x = static_cast<std::uint64_t>(s.when) ^
                            static_cast<std::uint64_t>(elapsed_);
    if (x < (std::uint64_t{1} << kL1Shift)) {
        bucketInsert(level0_, static_cast<int>(
                                  (static_cast<std::uint64_t>(s.when) >>
                                   kSlotShift) &
                                  (kSlots - 1)),
                     idx);
    } else if (x < (std::uint64_t{1} << kHorizonBits)) {
        bucketInsert(level1_, static_cast<int>(
                                  (static_cast<std::uint64_t>(s.when) >>
                                   kL1Shift) &
                                  (kSlots - 1)),
                     idx);
    } else {
        overflowPush(idx);
    }
}

void
Simulator::overflowPush(std::uint32_t idx)
{
    const auto later = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when > eb.when : ea.seq > eb.seq;
    };
    overflow_.push_back(idx);
    std::push_heap(overflow_.begin(), overflow_.end(), later);
}

std::uint32_t
Simulator::overflowPop()
{
    const auto later = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when > eb.when : ea.seq > eb.seq;
    };
    std::pop_heap(overflow_.begin(), overflow_.end(), later);
    const std::uint32_t idx = overflow_.back();
    overflow_.pop_back();
    return idx;
}

/**
 * Advance the wheel to the next pending deadline (if <= limit) and
 * pull that level-0 window's events into the drain batch, sorted by
 * (when, seq). Returns false — without advancing the wheel — when
 * nothing is due within the limit.
 *
 * Ordering argument (DESIGN.md §11): level-0 events agree with
 * elapsed_ on bits >= 28 of `when`, so they all precede every level-1
 * event (which differs somewhere in bits [28, 40)) and every overflow
 * event (bits >= 40). Level 0 therefore always holds the global
 * minimum when non-empty, then level 1, then the heap. Within a
 * level, occupied buckets never lie behind the current position
 * (pending deadlines are >= elapsed_ with equal block bits), so a
 * forward bitmap scan finds the earliest bucket.
 */
bool
Simulator::collectNext(Tick limit)
{
    for (;;) {
        // Admit overflow events the wheel can now represent.
        while (!overflow_.empty()) {
            const Tick when = slotAt(overflow_.front()).when;
            const std::uint64_t x =
                static_cast<std::uint64_t>(when) ^
                static_cast<std::uint64_t>(elapsed_);
            if (x >= (std::uint64_t{1} << kHorizonBits))
                break;
            wheelInsert(overflowPop());
        }

        if (!level0_.empty()) {
            const int cur = static_cast<int>(
                (static_cast<std::uint64_t>(elapsed_) >> kSlotShift) &
                (kSlots - 1));
            const int slot = level0_.next(cur);
            assert(slot >= 0);
            // Single pass: collect the bucket while finding its
            // earliest deadline (buckets are small: one 2^16-tick
            // window). Nothing is unlinked yet, so bailing out on
            // minWhen > limit leaves the bucket untouched.
            drain_.clear();
            Tick minWhen = slotAt(level0_.head[slot]).when;
            for (std::uint32_t c = level0_.head[slot]; c != kNil;
                 c = slotAt(c).next) {
                drain_.push_back(c);
                minWhen = std::min(minWhen, slotAt(c).when);
            }
            if (minWhen > limit) {
                drain_.clear();
                return false;
            }
            const Tick base = windowStart(minWhen, kSlotShift);
            if (base > elapsed_)
                elapsed_ = base;
            drainWinEnd_ = base + kSlotTicks;
            level0_.head[slot] = kNil;
            level0_.clear(slot);
            if (drain_.size() > 1)
                sortDrain();
            return true;
        }

        if (!level1_.empty()) {
            const int cur = static_cast<int>(
                (static_cast<std::uint64_t>(elapsed_) >> kL1Shift) &
                (kSlots - 1));
            const int slot = level1_.next(cur);
            assert(slot >= 0);
            Tick minWhen = slotAt(level1_.head[slot]).when;
            for (std::uint32_t c = level1_.head[slot]; c != kNil;
                 c = slotAt(c).next)
                minWhen = std::min(minWhen, slotAt(c).when);
            // Cascade only once an event within the limit is proven:
            // elapsed_ must never pass a deadline that will not fire.
            if (minWhen > limit)
                return false;
            const Tick base = windowStart(minWhen, kL1Shift);
            if (base > elapsed_)
                elapsed_ = base;
            std::uint32_t cur2 = level1_.head[slot];
            level1_.head[slot] = kNil;
            level1_.clear(slot);
            while (cur2 != kNil) {
                const std::uint32_t nxt = slotAt(cur2).next;
                wheelInsert(cur2); // re-files into level 0
                cur2 = nxt;
            }
            continue;
        }

        if (overflow_.empty())
            return false;
        // Beyond-horizon gap: jump wheel time to the heap top (the
        // global minimum) so the admission loop can file it.
        const Tick when = slotAt(overflow_.front()).when;
        if (when > limit)
            return false;
        elapsed_ = when;
    }
}

/**
 * Sort the collected batch by (when, seq). Buckets are LIFO stacks, so
 * reversing first restores insertion order — for the dominant
 * same-tick burst (ascending seq) that is already sorted and the
 * insertion sort degenerates to one comparison per element. Cascaded
 * buckets can arrive genuinely shuffled; large ones take std::sort.
 */
void
Simulator::sortDrain()
{
    std::reverse(drain_.begin(), drain_.end());
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
        const EventSlot& ea = slotAt(a);
        const EventSlot& eb = slotAt(b);
        return ea.when != eb.when ? ea.when < eb.when : ea.seq < eb.seq;
    };
    if (drain_.size() > 24) {
        std::sort(drain_.begin(), drain_.end(), before);
        return;
    }
    for (std::size_t i = 1; i < drain_.size(); ++i) {
        const std::uint32_t v = drain_[i];
        std::size_t j = i;
        while (j > 0 && before(v, drain_[j - 1])) {
            drain_[j] = drain_[j - 1];
            --j;
        }
        drain_[j] = v;
    }
}

/**
 * Fire the collected batch in (when, seq) order, stopping at @p limit
 * (a level-0 window spans 2^16 ticks and may straddle a runUntil
 * bound); events past the limit are re-filed into the wheel.
 */
std::uint64_t
Simulator::dispatchBatch(Tick limit)
{
    draining_ = true;
    std::uint64_t fired = 0;
    // drain_ may grow during iteration (same-window nested schedules).
    for (drainPos_ = 0; drainPos_ < drain_.size(); ++drainPos_) {
        const std::uint32_t idx = drain_[drainPos_];
        const Tick when = slotAt(idx).when;
        if (when > limit)
            break;
        now_ = when;
        if (when > elapsed_)
            elapsed_ = when;
        fire(idx);
        ++fired;
    }
    // Push any cut-off tail back into the wheel (it stays pending).
    for (std::size_t j = drainPos_; j < drain_.size(); ++j)
        wheelInsert(drain_[j]);
    drain_.clear();
    draining_ = false;
    return fired;
}

void
Simulator::fire(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    --pending_;
    ++processed_;
    ++domainCount_[s.domain];
    const std::uint8_t prevDomain = currentDomain_;
    currentDomain_ = s.domain;
    const std::uint32_t prevFiring = firing_;
    firing_ = idx;

    switch (s.kind & kKindMask) {
    case kResume: {
        const std::coroutine_handle<> h = s.handle;
        // Free before resuming: the coroutine's next delay reuses
        // this very slot — the zero-allocation steady state.
        freeSlot(idx);
        h.resume();
        break;
    }
    case kCallback:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        freeSlot(idx);
        break;
    case kArmed:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        break; // slot stays allocated for re-arming
    case kPeriodic:
        s.kind &= static_cast<std::uint8_t>(~kPendingBit);
        s.invoke(s.buf);
        if ((s.kind & kCancelBit) != 0) {
            // The callback cancelled its own cadence.
            freeSlot(idx);
            break;
        }
        // Drift-free: anchor to the scheduled time, not dispatch.
        s.when += s.period;
        s.seq = seq_++;
        s.kind |= kPendingBit;
        insertScheduled(idx);
        break;
    default:
        assert(false && "firing a free slot");
        break;
    }

    firing_ = prevFiring;
    currentDomain_ = prevDomain;
}

void
Simulator::schedule(Tick when, const EventRef& ev)
{
    assert(ev.valid());
    EventSlot& s = slotAt(ev.idx);
    assert(s.gen == ev.gen && "stale EventRef");
    assert((s.kind & kKindMask) == kArmed);
    assert((s.kind & kPendingBit) == 0 &&
           "EventRef already armed; cancel first");
    s.when = clampWhen(when);
    s.seq = seq_++;
    s.kind |= kPendingBit;
    s.kind &= static_cast<std::uint8_t>(~kCancelBit);
    insertScheduled(ev.idx);
}

bool
Simulator::pending(const EventRef& ev) const
{
    if (!ev.valid())
        return false;
    const EventSlot& s = slotAt(ev.idx);
    return s.gen == ev.gen && (s.kind & kPendingBit) != 0;
}

/** Exact removal of a pending slot from whichever structure currently
 *  holds it: the in-flight batch, a wheel bucket, or the overflow
 *  heap. */
bool
Simulator::removePending(std::uint32_t idx)
{
    EventSlot& s = slotAt(idx);
    if (draining_ && s.when < drainWinEnd_) {
        // Same-window pending slots during dispatch always live in
        // the batch (the whole level-0 bucket was collected into it);
        // un-fired entries sit past drainPos_.
        for (std::size_t j = drainPos_ + 1; j < drain_.size(); ++j) {
            if (drain_[j] == idx) {
                drain_.erase(drain_.begin() +
                             static_cast<std::ptrdiff_t>(j));
                --pending_;
                return true;
            }
        }
        return false;
    }
    const std::uint64_t x = static_cast<std::uint64_t>(s.when) ^
                            static_cast<std::uint64_t>(elapsed_);
    Level* level = nullptr;
    int slot = 0;
    if (x < (std::uint64_t{1} << kL1Shift)) {
        level = &level0_;
        slot = static_cast<int>(
            (static_cast<std::uint64_t>(s.when) >> kSlotShift) &
            (kSlots - 1));
    } else if (x < (std::uint64_t{1} << kHorizonBits)) {
        level = &level1_;
        slot = static_cast<int>(
            (static_cast<std::uint64_t>(s.when) >> kL1Shift) &
            (kSlots - 1));
    }
    if (level != nullptr) {
        std::uint32_t cur = level->head[slot];
        std::uint32_t prev = kNil;
        while (cur != kNil) {
            if (cur == idx) {
                const std::uint32_t nxt = slotAt(cur).next;
                if (prev == kNil)
                    level->head[slot] = nxt;
                else
                    slotAt(prev).next = nxt;
                if (level->head[slot] == kNil)
                    level->clear(slot);
                --pending_;
                return true;
            }
            prev = cur;
            cur = slotAt(cur).next;
        }
    }
    // Not in the wheel: it may sit in the overflow heap (including
    // events whose horizon bit cleared but that are not yet admitted).
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
        if (overflow_[i] != idx)
            continue;
        overflow_[i] = overflow_.back();
        overflow_.pop_back();
        std::make_heap(overflow_.begin(), overflow_.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                           const EventSlot& ea = slotAt(a);
                           const EventSlot& eb = slotAt(b);
                           return ea.when != eb.when
                                      ? ea.when > eb.when
                                      : ea.seq > eb.seq;
                       });
        --pending_;
        return true;
    }
    return false;
}

bool
Simulator::cancel(const EventRef& ev)
{
    if (!ev.valid())
        return false;
    EventSlot& s = slotAt(ev.idx);
    if (s.gen != ev.gen)
        return false;
    const std::uint8_t kind = s.kind & kKindMask;
    if (kind == kPeriodic && firing_ == ev.idx) {
        // Self-cancel from inside the periodic callback: suppress the
        // re-arm in fire(); the slot is freed there.
        s.kind |= kCancelBit;
        return true;
    }
    if ((s.kind & kPendingBit) == 0)
        return false;
    if (!removePending(ev.idx))
        return false;
    s.kind &= static_cast<std::uint8_t>(~kPendingBit);
    if (kind == kPeriodic)
        freeSlot(ev.idx);
    return true;
}

void
Simulator::release(EventRef& ev)
{
    if (ev.valid()) {
        EventSlot& s = slotAt(ev.idx);
        if (s.gen == ev.gen && (s.kind & kKindMask) != kFree) {
            if ((s.kind & kPendingBit) != 0 && removePending(ev.idx))
                s.kind &= static_cast<std::uint8_t>(~kPendingBit);
            freeSlot(ev.idx);
        }
    }
    ev = EventRef{};
}

void
Simulator::runUntil(Tick t)
{
    while (collectNext(t))
        dispatchBatch(t);
    // Clamp: time never rewinds (a t < now_ call used to drag the
    // clock backwards and break the when >= now_ invariant).
    if (t > now_) {
        now_ = t;
        // Every pending event is > t here, so the wheel clock may
        // follow the wall clock without passing any deadline.
        if (t > elapsed_)
            elapsed_ = t;
    }
}

std::uint64_t
Simulator::run(Tick max_time)
{
    std::uint64_t n = 0;
    while (collectNext(max_time))
        n += dispatchBatch(max_time);
    return n;
}

} // namespace octo::sim
