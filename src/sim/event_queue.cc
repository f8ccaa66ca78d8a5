#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/perfmon.hh"

namespace vsnoop
{

void
EventQueue::schedule(Event &event, Tick when)
{
    vsnoop_assert(when >= now_,
                  "scheduling into the past: when=", when, " now=", now_);
    enqueue(event, when, seq_++);
}

void
EventQueue::enqueue(Event &event, Tick when, std::uint64_t seq)
{
    if (perf_ != nullptr)
        perf_->schedules++;
    if (event.scheduled_) {
        // Invalidate the previous entry; it will be skipped on pop
        // because the tokens no longer match.
        live_--;
    }
    event.scheduled_ = true;
    event.when_ = when;
    event.token_ = nextToken_++;
    HeapEntry entry{when, seq, &event, event.token_};
    if (when - now_ < kWheelSize)
        wheelInsert(entry);
    else
        heapPush(entry);
    live_++;
}

void
EventQueue::wheelInsert(const HeapEntry &entry)
{
    std::uint32_t node = freeNode_;
    if (node == kNil) {
        vsnoop_assert(nodes_.size() < kNil, "event wheel slab is full");
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    } else {
        freeNode_ = nodes_[node].next;
    }
    Bucket &bucket = wheel_[entry.when & kWheelMask];
    if (bucket.tail == kNil) {
        nodes_[node] = WheelNode{entry, kNil};
        bucket.head = node;
        bucket.tail = node;
    } else if (nodes_[bucket.tail].entry.seq < entry.seq) {
        nodes_[node] = WheelNode{entry, kNil};
        nodes_[bucket.tail].next = node;
        bucket.tail = node;
    } else {
        // A reserved position: link in before the first later entry
        // (one exists, the tail).
        std::uint32_t *link = &bucket.head;
        while (nodes_[*link].entry.seq < entry.seq)
            link = &nodes_[*link].next;
        nodes_[node] = WheelNode{entry, *link};
        *link = node;
    }
    bucket.depth++;
    wheelCount_++;
    if (entry.when < peekCursor_)
        peekCursor_ = entry.when;
    if (perf_ != nullptr) {
        perf_->wheelInserts++;
        if (wheelCount_ > perf_->maxWheelEntries)
            perf_->maxWheelEntries = wheelCount_;
        if (bucket.depth > perf_->maxBucketDepth)
            perf_->maxBucketDepth = bucket.depth;
    }
}

void
EventQueue::popBucketHead(Bucket &bucket)
{
    std::uint32_t node = bucket.head;
    bucket.head = nodes_[node].next;
    if (bucket.head == kNil)
        bucket.tail = kNil;
    bucket.depth--;
    nodes_[node].next = freeNode_;
    freeNode_ = node;
    wheelCount_--;
}

void
EventQueue::advanceTo(Tick t)
{
    now_ = t;
    if (peekCursor_ < t)
        peekCursor_ = t;
    while (!overflow_.empty()) {
        const HeapEntry &top = overflow_.front();
        if (top.when >= now_) {
            if (top.when - now_ >= kWheelSize)
                break;
            HeapEntry moved = top;
            heapPopTop();
            wheelInsert(moved);
        } else {
            // The clock never passes a live entry, so an entry left
            // behind it must have been descheduled or rescheduled.
            vsnoop_assert(!top.event->scheduled_ ||
                              top.event->token_ != top.token,
                          "live event left behind the clock");
            heapPopTop();
        }
    }
}

void
EventQueue::deschedule(Event &event)
{
    if (!event.scheduled_)
        return;
    if (perf_ != nullptr)
        perf_->deschedules++;
    event.scheduled_ = false;
    event.token_ = 0;
    live_--;
}

EventQueue::OwnedEvent &
EventQueue::acquireSlot(Callback fn)
{
    OwnedEvent *slot;
    if (!freeSlots_.empty()) {
        slot = pool_[freeSlots_.back()].get();
        freeSlots_.pop_back();
        if (perf_ != nullptr)
            perf_->poolReuses++;
    } else {
        pool_.push_back(std::make_unique<OwnedEvent>(
            *this, static_cast<std::uint32_t>(pool_.size())));
        slot = pool_.back().get();
        if (perf_ != nullptr) {
            perf_->poolRefills++;
            perf_->poolHighWater = pool_.size();
        }
    }
    slot->fn = std::move(fn);
    return *slot;
}

void
EventQueue::scheduleFn(Tick when, Callback fn)
{
    schedule(acquireSlot(std::move(fn)), when);
}

void
EventQueue::scheduleFnAt(Tick when, std::uint64_t seq, Callback fn)
{
    vsnoop_assert(seq < seq_, "sequence number ", seq, " was never reserved");
    vsnoop_assert(afterFrontier(when, seq),
                  "scheduling before the dispatch frontier: when=", when,
                  " seq=", seq, " now=", now_);
    enqueue(acquireSlot(std::move(fn)), when, seq);
}

void
EventQueue::OwnedEvent::process()
{
    fn();
    // Release only after the callback has returned: the callback may
    // itself scheduleFn() — growing the pool or reusing other free
    // slots — but can never be handed this still-running one.
    fn.reset();
    eq_.freeSlots_.push_back(slot_);
}

void
EventQueue::heapPush(const HeapEntry &entry)
{
    std::size_t i = overflow_.size();
    overflow_.push_back(entry);
    while (i > 0) {
        std::size_t parent = (i - 1) / 4;
        if (!(overflow_[parent] > entry))
            break;
        overflow_[i] = overflow_[parent];
        i = parent;
    }
    overflow_[i] = entry;
    if (perf_ != nullptr) {
        perf_->overflowInserts++;
        if (overflow_.size() > perf_->maxOverflowEntries)
            perf_->maxOverflowEntries = overflow_.size();
    }
}

void
EventQueue::heapPopTop()
{
    HeapEntry last = overflow_.back();
    overflow_.pop_back();
    std::size_t n = overflow_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        std::size_t first = 4 * i + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t end = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (overflow_[best] > overflow_[c])
                best = c;
        }
        if (!(last > overflow_[best]))
            break;
        overflow_[i] = overflow_[best];
        i = best;
    }
    overflow_[i] = last;
}

bool
EventQueue::peekNext(HeapEntry &out)
{
    if (wheelCount_ > 0) {
        // All wheel entries sit in [now_, now_ + kWheelSize), and
        // none below peekCursor_, so this scan is bounded by the
        // wheel span and normally ends within a few buckets.
        Tick t = peekCursor_;
        for (;;) {
            Bucket &bucket = wheel_[t & kWheelMask];
            while (bucket.head != kNil) {
                const HeapEntry &e = nodes_[bucket.head].entry;
                if (e.event->scheduled_ && e.event->token_ == e.token) {
                    peekCursor_ = t;
                    peekFromOverflow_ = false;
                    out = e;
                    return true;
                }
                // Stale: event was descheduled or rescheduled.
                popBucketHead(bucket);
            }
            if (wheelCount_ == 0)
                break;
            t++;
        }
        peekCursor_ = t;
    }
    // Nothing in the wheel: the next event (if any) is beyond the
    // window, at the overflow heap's top.
    while (!overflow_.empty()) {
        const HeapEntry &top = overflow_.front();
        if (top.event->scheduled_ && top.event->token_ == top.token) {
            peekFromOverflow_ = true;
            out = top;
            return true;
        }
        heapPopTop();
    }
    return false;
}

void
EventQueue::consumePeeked()
{
    if (peekFromOverflow_) {
        heapPopTop();
        return;
    }
    popBucketHead(wheel_[peekCursor_ & kWheelMask]);
}

bool
EventQueue::popNext(HeapEntry &out)
{
    if (!peekNext(out))
        return false;
    consumePeeked();
    return true;
}

void
EventQueue::dispatch(HeapEntry &entry)
{
    advanceTo(entry.when);
    openSeq_ = entry.seq + 1;
    entry.event->scheduled_ = false;
    entry.event->token_ = 0;
    live_--;
    processed_++;
    entry.event->process();
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t dispatched = 0;
    HeapEntry entry;
    while (dispatched < limit && popNext(entry)) {
        dispatch(entry);
        dispatched++;
    }
    return dispatched;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    ProfileScope scope(profiler_, HostProfiler::Phase::Coherence);
    std::uint64_t dispatched = 0;
    HeapEntry entry;
    while (peekNext(entry) && entry.when <= until) {
        consumePeeked();
        dispatch(entry);
        dispatched++;
    }
    if (now_ < until) {
        advanceTo(until);
        openSeq_ = UINT64_MAX;
    }
    return dispatched;
}

bool
EventQueue::step()
{
    return run(1) == 1;
}

} // namespace vsnoop
