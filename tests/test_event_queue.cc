/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/perfmon.hh"

namespace vsnoop::test
{

namespace
{

class RecordingEvent : public Event
{
  public:
    explicit RecordingEvent(std::vector<int> &log, int id)
        : log_(log), id_(id)
    {
    }

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // namespace

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(a, 30);
    eq.schedule(b, 10);
    eq.schedule(c, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(a, 5);
    eq.schedule(b, 5);
    eq.schedule(c, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 6);
    eq.deschedule(a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 10);
    eq.schedule(a, 20); // move a after b
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.schedule(b, 50);
    std::uint64_t n = eq.runUntil(10);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(b.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, LambdaEventsFire)
{
    EventQueue eq;
    int hits = 0;
    eq.scheduleFn(7, [&] { hits++; });
    eq.scheduleFnIn(3, [&] { hits += 10; });
    eq.run();
    EXPECT_EQ(hits, 11);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleFnIn(10, chain);
    };
    eq.scheduleFn(0, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunLimitBoundsDispatch)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> forever = [&] {
        count++;
        eq.scheduleFnIn(1, forever);
    };
    eq.scheduleFn(0, forever);
    std::uint64_t n = eq.run(100);
    EXPECT_EQ(n, 100u);
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueue, EmptyReflectsLiveEvents)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    std::vector<int> log;
    RecordingEvent b(log, 2);
    eq.schedule(b, 1);
    EXPECT_FALSE(eq.empty());
    eq.deschedule(b);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ManyOwnedCallbacksAreReaped)
{
    EventQueue eq;
    std::uint64_t hits = 0;
    for (int i = 0; i < 5000; ++i)
        eq.scheduleFn(static_cast<Tick>(i), [&] { hits++; });
    eq.run();
    EXPECT_EQ(hits, 5000u);
}

TEST(EventQueue, DescheduleThenRescheduleInvalidatesStaleEntry)
{
    // The stale calendar-queue entry left by the deschedule carries
    // an old token; only the re-scheduled entry may fire, exactly
    // once, at the new time.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 5);
    eq.deschedule(a);
    eq.schedule(a, 15);
    eq.schedule(b, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, RescheduleAcrossWheelAndOverflow)
{
    // Move an event from the near-future wheel to the far-future
    // overflow heap and back; each stale entry must be skipped.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 10);       // wheel
    eq.schedule(a, 100000);   // overflow
    eq.schedule(a, 20);       // wheel again
    eq.schedule(b, 15);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, FarFuturePendingCallbacksArePreserved)
{
    // Callbacks scheduled far beyond the wheel window (overflow
    // heap) must survive arbitrarily many near-term dispatches and
    // window slides, and still fire in order.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleFn(500000, [&] { log.push_back(91); });
    eq.scheduleFn(400000, [&] { log.push_back(90); });
    int near = 0;
    for (int i = 0; i < 2000; ++i)
        eq.scheduleFn(static_cast<Tick>(i * 10), [&] { near++; });
    std::uint64_t n = eq.runUntil(300000);
    EXPECT_EQ(n, 2000u);
    EXPECT_EQ(near, 2000);
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{90, 91}));
    EXPECT_EQ(eq.now(), 500000u);
}

TEST(EventQueue, RunUntilExactTickBoundaryIsInclusive)
{
    // An event at exactly the runUntil bound dispatches in that
    // call, and the clock lands on the bound, not past it.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(a, 10);
    eq.schedule(b, 11);
    std::uint64_t n = eq.runUntil(10);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_TRUE(b.scheduled());
    // A second runUntil at the same bound is a no-op.
    EXPECT_EQ(eq.runUntil(10), 0u);
    EXPECT_EQ(eq.now(), 10u);
    eq.runUntil(11);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SameTickFifoSurvivesWheelWrap)
{
    // Two same-tick events scheduled one full wheel span apart in
    // wall progress: FIFO order among them must still hold after
    // the bucket index wraps.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.runUntil(5000); // advance past one wheel span (4096)
    eq.schedule(a, 5100);
    eq.schedule(b, 5100);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PerfCountsWheelAndOverflowAcrossWrap)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3), d(log, 4);
    eq.schedule(a, 10);
    eq.schedule(b, 10);     // same tick: bucket depth 2
    eq.schedule(c, 100000); // beyond the wheel span: overflow heap
    eq.schedule(d, 100010); // also overflow; lands within c's window
    EXPECT_EQ(perf.schedules, 4u);
    EXPECT_EQ(perf.overflowInserts, 2u);
    EXPECT_EQ(perf.maxOverflowEntries, 2u);
    EXPECT_GE(perf.maxBucketDepth, 2u);
    EXPECT_GE(perf.maxWheelEntries, 2u);
    std::uint64_t wheel_before = perf.wheelInserts;
    EXPECT_GE(wheel_before, 2u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    // When c dispatches the clock lands within kWheelSize of d, so
    // advanceTo migrates d from the overflow heap into the wheel.
    // That migration is wheel pressure and must count too.
    EXPECT_EQ(perf.wheelInserts, wheel_before + 1);
}

TEST(EventQueue, PerfCountsDeschedulesAndPoolChurn)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(a, 5);
    eq.deschedule(a);
    EXPECT_EQ(perf.deschedules, 1u);
    // Descheduling an unscheduled event is a no-op, not a count.
    eq.deschedule(a);
    EXPECT_EQ(perf.deschedules, 1u);

    int hits = 0;
    eq.scheduleFn(10, [&] { hits++; });
    EXPECT_EQ(perf.poolRefills, 1u);
    EXPECT_EQ(perf.poolHighWater, 1u);
    EXPECT_EQ(perf.poolReuses, 0u);
    eq.run();
    // The freed slot is reused: high water stays at one.
    eq.scheduleFn(20, [&] { hits++; });
    EXPECT_EQ(perf.poolReuses, 1u);
    EXPECT_EQ(perf.poolRefills, 1u);
    EXPECT_EQ(perf.poolHighWater, 1u);
    eq.run();
    EXPECT_EQ(hits, 2);
}

TEST(EventQueue, PerfDetachStopsCounting)
{
    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(a, 5);
    EXPECT_EQ(perf.schedules, 1u);
    eq.setPerf(nullptr);
    eq.schedule(a, 7);
    eq.run();
    EXPECT_EQ(perf.schedules, 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, WheelSlabIsBoundedByPeakLiveEntries)
{
    // Eight self-rescheduling events, 1..15 ticks apart, dispatch
    // about one event per tick for a million ticks.  Every wheel
    // bucket is visited ~250 times, yet the node slab behind them
    // never outgrows the eight entries ever live at once.
    class Hopper : public Event
    {
      public:
        Hopper(EventQueue &eq, std::uint64_t id, std::uint64_t &fired,
               std::uint64_t &peak)
            : eq_(eq), id_(id), fired_(fired), peak_(peak)
        {
        }

        void
        process() override
        {
            ++fired_;
            eq_.scheduleIn(*this, 1 + (fired_ * 7 + id_) % 15);
            peak_ = std::max(peak_, eq_.wheelEntries());
        }

      private:
        EventQueue &eq_;
        std::uint64_t id_;
        std::uint64_t &fired_;
        std::uint64_t &peak_;
    };

    EventQueue eq;
    EventQueuePerf perf;
    eq.setPerf(&perf);
    std::uint64_t fired = 0, peak = 0;
    std::vector<std::unique_ptr<Hopper>> hoppers;
    for (std::uint64_t id = 0; id < 8; ++id) {
        hoppers.push_back(std::make_unique<Hopper>(eq, id, fired, peak));
        eq.schedule(*hoppers.back(), id);
    }
    EXPECT_EQ(eq.run(1'000'000), 1'000'000u);
    EXPECT_GT(eq.now(), 900'000u);
    EXPECT_EQ(peak, 8u);
    EXPECT_EQ(perf.maxWheelEntries, 8u);
    EXPECT_LE(eq.wheelSlabNodes(), peak);
    EXPECT_EQ(eq.wheelEntries(), 8u);
}

TEST(EventQueue, DescheduleInsideABucketKeepsSameTickFifo)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3), d(log, 4),
        e(log, 5);
    eq.schedule(a, 5);
    eq.schedule(b, 5);
    eq.schedule(c, 5);
    eq.schedule(d, 5);
    eq.deschedule(b); // middle of the bucket: a stale node stays
    eq.schedule(e, 5);
    eq.schedule(c, 5); // rescheduled: moves to the bucket's tail
    EXPECT_EQ(eq.wheelEntries(), 6u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 4, 5, 3}));
    EXPECT_EQ(eq.wheelEntries(), 0u);
    EXPECT_EQ(eq.wheelSlabNodes(), 6u);

    // The drained nodes are reused, not appended.
    log.clear();
    eq.schedule(b, 9);
    eq.schedule(a, 9);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.wheelSlabNodes(), 6u);
}

TEST(EventQueue, ReservedSeqOrdersBeforeLaterSameTickSchedules)
{
    // A callback filled into a reserved position dispatches where a
    // schedule made at reservation time would have: after what was
    // scheduled before the reservation, before what came after it.
    EventQueue eq;
    std::vector<int> log;
    eq.scheduleFn(10, [&] { log.push_back(1); });
    std::uint64_t seq = eq.reserveSeq();
    eq.scheduleFn(10, [&] { log.push_back(3); });
    eq.scheduleFn(5, [&] { log.push_back(0); });
    eq.scheduleFnAt(10, seq, [&] { log.push_back(2); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ReservedSeqInsertsIntoTheTickBeingDispatched)
{
    // The first event of tick 10 fills a position between itself and
    // the tick's remaining events.
    EventQueue eq;
    std::vector<int> log;
    std::uint64_t seq = 0;
    eq.scheduleFn(10, [&] {
        log.push_back(1);
        eq.scheduleFnAt(10, seq, [&] { log.push_back(2); });
    });
    seq = eq.reserveSeq();
    eq.scheduleFn(10, [&] { log.push_back(3); });
    eq.scheduleFn(10, [&] { log.push_back(4); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ReservedSeqBeyondTheWheelGoesThroughOverflow)
{
    // Beyond the wheel span the insert lands in the overflow heap,
    // which orders by (tick, seq); migrating back into the wheel as
    // the window slides keeps that order.
    EventQueue eq;
    std::vector<int> log;
    std::uint64_t seq = eq.reserveSeq();
    eq.scheduleFn(100000, [&] { log.push_back(2); });
    eq.scheduleFnAt(100000, seq, [&] { log.push_back(1); });
    EXPECT_EQ(eq.overflowEntries(), 2u);
    EXPECT_EQ(eq.wheelEntries(), 0u);
    eq.runUntil(99000);
    EXPECT_EQ(eq.overflowEntries(), 0u);
    EXPECT_EQ(eq.wheelEntries(), 2u);
    // A fresh same-tick schedule, now straight into the wheel.
    eq.scheduleFn(100000, [&] { log.push_back(3); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FrontierFollowsStepAndRunUntil)
{
    EventQueue eq;
    EXPECT_TRUE(eq.afterFrontier(0, 0));
    std::uint64_t first = eq.reserveSeq() + 1;
    eq.scheduleFn(10, [] {});
    eq.scheduleFn(10, [] {});
    eq.scheduleFn(20, [] {});

    // step(): the frontier is the entry just dispatched.
    ASSERT_TRUE(eq.step());
    EXPECT_FALSE(eq.afterFrontier(10, first));
    EXPECT_TRUE(eq.afterFrontier(10, first + 1));
    EXPECT_FALSE(eq.afterFrontier(9, first + 5));

    // runUntil() ending on an event's tick leaves it the frontier.
    eq.runUntil(10);
    EXPECT_FALSE(eq.afterFrontier(10, first + 1));
    EXPECT_TRUE(eq.afterFrontier(10, first + 2));

    // Once runUntil() moves the clock past it, the whole tick is
    // settled.
    eq.runUntil(15);
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_FALSE(eq.afterFrontier(15, UINT64_MAX - 1));
    EXPECT_TRUE(eq.afterFrontier(16, 0));
    eq.runUntil(20);
    EXPECT_FALSE(eq.afterFrontier(20, first + 2));
    EXPECT_TRUE(eq.afterFrontier(20, first + 3));
}

TEST(EventQueueDeath, ReservedSeqBeforeTheFrontierPanics)
{
    EventQueue eq;
    eq.scheduleFn(10, [] {});
    std::uint64_t seq = eq.reserveSeq();
    eq.scheduleFn(10, [] {});
    eq.run();
    // (10, seq) lies before the last dispatched entry.
    EXPECT_DEATH(eq.scheduleFnAt(10, seq, [] {}), "frontier");
    EXPECT_DEATH(eq.scheduleFnAt(5, seq, [] {}), "frontier");
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.scheduleFn(100, [] {});
    eq.run();
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_DEATH(eq.schedule(a, 50), "past");
}

} // namespace vsnoop::test
