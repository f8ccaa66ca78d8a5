/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An EventQueue orders Events by tick; ties are broken by schedule
 * order (FIFO among same-tick events) so runs are deterministic.
 * Components own their recurring Event objects and schedule them
 * against the queue; one-shot callbacks can be scheduled directly
 * and are owned by the queue.
 *
 * Descheduling and rescheduling are supported via generation
 * counters: every schedule() stamps the event with a fresh token and
 * stale heap entries are discarded lazily when popped.
 *
 * One-shot callbacks are stored in a slot pool: each scheduleFn()
 * reuses a previously-dispatched wrapper slot instead of allocating,
 * and the callable's captures live in the slot's SmallFn inline
 * buffer.  A slot is released only after its callback returns, so a
 * callback may schedule further callbacks (including at the same
 * tick) without ever being handed its own still-running slot.
 *
 * Pending events live in a calendar queue: a timing wheel of
 * per-tick buckets covering the near future (where nearly all
 * protocol events land — message deliveries and retry windows are
 * all well under the wheel span), with a 4-ary min-heap overflow for
 * far-future events (migration epochs, periodic scans).  A fresh
 * insert and an extract are O(1) on the wheel path, and dispatch
 * order is exactly the (tick, schedule-order) total order a
 * comparison heap would produce: a bucket only ever holds entries
 * for a single tick in ascending sequence order, and overflow
 * entries for a tick are migrated into its bucket before any direct
 * insert can target it.
 *
 * A caller may also reserve a schedule-order position (reserveSeq())
 * and fill it later (scheduleFnAt()): the event then dispatches
 * exactly where it would have had it been scheduled at reservation
 * time.  Such an insert walks its bucket to the sequence position,
 * so buckets stay sorted, and may target only positions after the
 * dispatch frontier (afterFrontier()).
 *
 * Buckets are lists threaded through one node slab: a bucket is
 * a (head, tail) pair of slab indices, and consumed or stale nodes go
 * back on the slab's free list.  The slab therefore never holds more
 * nodes than the most wheel entries ever live at once, where per-tick
 * vectors would each keep their high-water capacity for the run.
 */

#ifndef VSNOOP_SIM_EVENT_QUEUE_HH_
#define VSNOOP_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/profiler.hh"
#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace vsnoop
{

class EventQueue;
struct EventQueuePerf;

/**
 * Base class for anything that can be scheduled on an EventQueue.
 */
class Event
{
  public:
    virtual ~Event() = default;

    /** Invoked by the queue when simulated time reaches the event. */
    virtual void process() = 0;

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return scheduled_; }

    /** Tick the event is currently scheduled for (kMaxTick if none). */
    Tick when() const { return scheduled_ ? when_ : kMaxTick; }

  private:
    friend class EventQueue;

    bool scheduled_ = false;
    Tick when_ = kMaxTick;
    std::uint64_t token_ = 0;
};

/**
 * The simulation clock and pending-event heap.
 */
class EventQueue
{
  public:
    /** One-shot callback type accepted by scheduleFn(). */
    using Callback = SmallFn<void()>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events dispatched since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** True when no events remain pending. */
    bool empty() const { return live_ == 0; }

    /**
     * Schedule a component-owned event at an absolute tick.
     * Rescheduling an already-scheduled event moves it.
     *
     * @param event Event to dispatch; must outlive dispatch.
     * @param when Absolute tick, not before now().
     */
    void schedule(Event &event, Tick when);

    /** Schedule a component-owned event @p delay ticks from now. */
    void scheduleIn(Event &event, Tick delay) {
        schedule(event, now_ + delay);
    }

    /** Remove a pending event from the queue (no-op if idle). */
    void deschedule(Event &event);

    /**
     * Schedule a one-shot callback at an absolute tick.  The queue
     * owns the wrapper and recycles it after dispatch.
     */
    void scheduleFn(Tick when, Callback fn);

    /** Schedule a one-shot callback @p delay ticks from now. */
    void scheduleFnIn(Tick delay, Callback fn) {
        scheduleFn(now_ + delay, std::move(fn));
    }

    /**
     * Take the schedule-order position the next schedule would get,
     * for an event that may be filled in later by scheduleFnAt().
     * Every later schedule orders after it, filled or not.
     */
    std::uint64_t reserveSeq() { return seq_++; }

    /**
     * Schedule a one-shot callback at the reserved position
     * (@p when, @p seq): it dispatches exactly where a callback
     * scheduled for @p when at reservation time would have.  Panics
     * unless the position lies after the dispatch frontier.
     */
    void scheduleFnAt(Tick when, std::uint64_t seq, Callback fn);

    /**
     * True when (@p when, @p seq) has not been passed yet.  The
     * dispatch frontier is the (tick, seq) of the last dispatched
     * entry, or (now(), infinity) once runUntil() has moved the clock
     * past that entry: every position at or before it is settled.
     */
    bool
    afterFrontier(Tick when, std::uint64_t seq) const
    {
        return when > now_ || (when == now_ && seq >= openSeq_);
    }

    /**
     * Dispatch pending events in order until the queue drains or
     * the limit is hit.
     *
     * @param limit Maximum events to dispatch (guards against
     *        accidental infinite event chains).
     * @return Number of events dispatched.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Dispatch events with tick <= until, then set now() to
     * @p until even if the queue drained early.
     *
     * @return Number of events dispatched.
     */
    std::uint64_t runUntil(Tick until);

    /**
     * Attribute runUntil() dispatch time to the Coherence phase of
     * @p profiler (one scope per runUntil call, not per event —
     * per-event clock reads at tens of millions of events/s were a
     * measurable share of the whole simulation).  Nested scopes
     * opened by individual events (e.g. workload generation) still
     * subtract themselves from the bracket, so exclusive attribution
     * is preserved at phase granularity.  run() is deliberately not
     * bracketed: the end-of-run drain calls it inside its own Drain
     * scope.
     */
    void setDispatchProfile(HostProfiler *profiler) { profiler_ = profiler; }

    /** Dispatch exactly one event if any is pending. */
    bool step();

    /**
     * Attach an internals counter block (sim/perfmon.hh); nullptr
     * detaches.  Branch-on-null like setDispatchProfile(): every
     * hook costs one predictable branch when detached.
     */
    void setPerf(EventQueuePerf *perf) { perf_ = perf; }

    /** @{
     * Live structure occupancy, read by the perfmon interval
     * sampler (and anyone else curious).
     */
    std::uint64_t wheelEntries() const { return wheelCount_; }
    /** Nodes in the wheel's slab: the peak of wheelEntries(). */
    std::uint64_t wheelSlabNodes() const { return nodes_.size(); }
    std::uint64_t overflowEntries() const { return overflow_.size(); }
    std::uint64_t poolSlots() const { return pool_.size(); }
    /** @} */

  private:
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;
        std::uint64_t token;

        bool
        operator>(const HeapEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /**
     * A pooled wrapper for one-shot callbacks.  Slots live at stable
     * addresses (behind unique_ptr) for the queue's lifetime and are
     * recycled through freeSlots_ once their callback has returned.
     */
    class OwnedEvent : public Event
    {
      public:
        OwnedEvent(EventQueue &eq, std::uint32_t slot)
            : eq_(eq), slot_(slot)
        {
        }

        void process() override;

        Callback fn;

      private:
        EventQueue &eq_;
        std::uint32_t slot_;
    };

    /** End-of-list / empty-free-list marker for slab indices. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One wheel entry in the slab, linked to its bucket successor. */
    struct WheelNode
    {
        HeapEntry entry;
        std::uint32_t next;
    };

    /**
     * One wheel slot.  While a tick is within the wheel's window its
     * bucket is a list in sequence order: fresh entries append at
     * tail, reserved ones link in at their position, and dispatch
     * drains from head, each drained node returning to the slab's
     * free list.
     * depth counts the bucket's nodes, stale ones included.
     */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t depth = 0;
    };

    /** Wheel span in ticks (power of two). */
    static constexpr std::size_t kWheelBits = 12;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;

    /**
     * Find the next valid (non-stale) entry without consuming it.
     * Stale entries encountered on the way are discarded.
     */
    bool peekNext(HeapEntry &out);

    /** Consume the entry peekNext() just returned. */
    void consumePeeked();

    /** peekNext + consumePeeked in one step. */
    bool popNext(HeapEntry &out);

    /** Dispatch one popped entry. */
    void dispatch(HeapEntry &entry);

    /** Stamp @p event and queue it at (when, seq). */
    void enqueue(Event &event, Tick when, std::uint64_t seq);

    /** A pool slot holding @p fn, ready to schedule. */
    OwnedEvent &acquireSlot(Callback fn);

    /**
     * Insert into the wheel bucket for entry.when at its sequence
     * position: the tail for a fresh schedule, an earlier node for a
     * reserved one.
     */
    void wheelInsert(const HeapEntry &entry);

    /** Unlink @p bucket's head node onto the slab's free list. */
    void popBucketHead(Bucket &bucket);

    /**
     * Advance the clock and slide the wheel window: overflow entries
     * that fall inside the new window move into their buckets.  Must
     * run at every now_ change so overflow entries reach a bucket
     * before any direct insert for their tick (see file comment).
     */
    void advanceTo(Tick t);

    /** @{
     * 4-ary min-heap over (when, seq) for beyond-the-window events.
     */
    void heapPush(const HeapEntry &entry);
    void heapPopTop();
    /** @} */

    std::vector<Bucket> wheel_{kWheelSize};
    /** Node slab behind every bucket; grows only when freeNode_ is
     *  empty. */
    std::vector<WheelNode> nodes_;
    /** Head of the slab's free list (kNil when empty). */
    std::uint32_t freeNode_ = kNil;
    /** Entries (valid + stale) currently in wheel buckets. */
    std::uint64_t wheelCount_ = 0;
    /**
     * No wheel entry lives at a tick below peekCursor_; scans resume
     * here instead of at now_.  Pulled back on any insert below it.
     */
    Tick peekCursor_ = 0;
    /** The entry peekNext() found came from overflow_, not the wheel. */
    bool peekFromOverflow_ = false;
    std::vector<HeapEntry> overflow_;
    HostProfiler *profiler_ = nullptr;
    EventQueuePerf *perf_ = nullptr;
    std::vector<std::unique_ptr<OwnedEvent>> pool_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    /**
     * Lowest sequence number still open at now_: the frontier's seq
     * plus one, or UINT64_MAX once runUntil() moved the clock past it.
     */
    std::uint64_t openSeq_ = 0;
    std::uint64_t nextToken_ = 1;
    std::uint64_t processed_ = 0;
    std::uint64_t live_ = 0;
};

} // namespace vsnoop

#endif // VSNOOP_SIM_EVENT_QUEUE_HH_
