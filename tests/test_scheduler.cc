// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism, timers, the pooled event slab and its generation handles.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/dary_heap.h"
#include "src/sim/inplace_function.h"
#include "src/sim/scheduler.h"
#include "src/sim/timing_wheel.h"

namespace g80211 {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(microseconds(30), [&] { order.push_back(3); });
  s.at(microseconds(10), [&] { order.push_back(1); });
  s.at(microseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(microseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler s;
  Time seen = -1;
  s.at(milliseconds(7), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, milliseconds(7));
  EXPECT_EQ(s.now(), milliseconds(7));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.at(seconds(1), [&] { ++fired; });
  s.at(seconds(3), [&] { ++fired; });
  s.run_until(seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), seconds(2));
  s.run_until(seconds(4));
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(microseconds(1), recurse);
  };
  s.after(microseconds(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.at(microseconds(10), [&] { ran = true; });
  EXPECT_TRUE(id.pending());
  id.cancel();
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAtSameTimestampBeforeDispatchWorks) {
  // An event at time T cancelling another event also at time T (scheduled
  // later in insertion order) must win — the MAC relies on this for
  // same-instant busy-edge vs timer races.
  Scheduler s;
  bool second_ran = false;
  EventId second;
  s.at(microseconds(5), [&] { second.cancel(); });
  second = s.at(microseconds(5), [&] { second_ran = true; });
  s.run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, PendingReflectsFiredState) {
  Scheduler s;
  EventId id = s.at(microseconds(1), [] {});
  s.run();
  EXPECT_FALSE(id.pending());
}

TEST(Scheduler, ExecutedCountsOnlyLiveEvents) {
  Scheduler s;
  EventId a = s.at(microseconds(1), [] {});
  s.at(microseconds(2), [] {});
  a.cancel();
  s.run();
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, CancelAfterFireIsANoOp) {
  Scheduler s;
  int runs = 0;
  EventId id = s.at(microseconds(1), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(id.pending());
  id.cancel();  // stale handle: must not disturb anything
  EXPECT_FALSE(id.pending());
  EXPECT_EQ(s.executed(), 1u);
  // The fired slot is reusable; the stale handle must not touch its new
  // occupant.
  bool ran = false;
  EventId fresh = s.at(microseconds(2), [&] { ran = true; });
  id.cancel();
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, PendingAcrossGenerationReuseOfPooledSlot) {
  Scheduler s;
  EventId a = s.at(microseconds(1), [] {});
  a.cancel();  // frees the slot immediately
  EXPECT_FALSE(a.pending());
  // Only one slot was ever allocated, so b reuses a's slot at a fresh
  // generation.
  EventId b = s.at(microseconds(2), [] {});
  EXPECT_EQ(s.pool_slots(), 1u);
  EXPECT_FALSE(a.pending()) << "stale handle must not match the reused slot";
  EXPECT_TRUE(b.pending());
  a.cancel();  // stale cancel must not kill b
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_FALSE(b.pending());
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, CancelledPendingCountsTombstones) {
  Scheduler s;
  EventId a = s.at(microseconds(10), [] {});
  s.at(microseconds(20), [] {});
  EXPECT_EQ(s.cancelled_pending(), 0u);
  EXPECT_EQ(s.pending(), 2u);
  a.cancel();
  EXPECT_EQ(s.cancelled_pending(), 1u) << "tombstone stays queued until popped";
  EXPECT_EQ(s.queued(), 2u);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.cancelled_pending(), 0u);
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Scheduler, MassCancelStressDoesNotGrowPool) {
  Scheduler s;
  constexpr int kRounds = 50;
  constexpr std::size_t kBatch = 256;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids.push_back(s.after(microseconds(static_cast<Time>(i + 1)), [] {}));
    }
    EXPECT_EQ(s.pending(), kBatch);
    for (EventId& id : ids) id.cancel();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.cancelled_pending(), kBatch);
    // Slots are recycled at cancel time: the slab never exceeds the
    // high-water mark of concurrently pending events.
    EXPECT_LE(s.pool_slots(), kBatch);
    s.run();  // drains the tombstones without executing anything
    EXPECT_EQ(s.cancelled_pending(), 0u);
    EXPECT_EQ(s.queued(), 0u);
  }
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_LE(s.pool_slots(), kBatch);
}

TEST(Scheduler, GoldenEventOrderTrace) {
  // Golden trace locking in dispatch order across engine refactors:
  // same-time ties fire in insertion order, cancelled events (including a
  // same-instant cancel) drop out, and an event scheduled *during* the
  // current instant runs after everything already queued at that instant.
  Scheduler s;
  std::vector<std::string> trace;
  s.at(microseconds(20), [&] { trace.push_back("c1"); });
  s.at(microseconds(10), [&] {
    trace.push_back("a1");
    s.after(0, [&] { trace.push_back("a1-nested"); });
    s.at(microseconds(15), [&] { trace.push_back("b"); });
  });
  EventId dead = s.at(microseconds(10), [&] { trace.push_back("dead"); });
  s.at(microseconds(10), [&] { trace.push_back("a2"); });
  dead.cancel();
  s.at(microseconds(20), [&] { trace.push_back("c2"); });
  Timer t(s, [&] { trace.push_back("timer"); });
  t.start(microseconds(17));
  s.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "a2", "a1-nested", "b",
                                             "timer", "c1", "c2"}));
}

TEST(Scheduler, CrossLevelTimesFireInOrder) {
  // Deadlines spanning every wheel level — sub-tick, level 0, the higher
  // windows, and far past the 2^42 ns span (overflow) — plus events
  // scheduled mid-run.
  Scheduler s;
  std::vector<int> order;
  const Time times[] = {
      nanoseconds(1),   nanoseconds(900),  microseconds(2),
      microseconds(90), milliseconds(3),   milliseconds(40),
      seconds(2),       seconds(70),       seconds(3600),
      seconds(5400),  // ~90 min: beyond the wheel span, overflow heap
  };
  int tag = 0;
  for (Time t : times) {
    const int id = tag++;
    s.at(t, [&order, id] { order.push_back(id); });
  }
  // Same-time tie at an already-used slot plus a nested reschedule.
  s.at(milliseconds(3), [&] {
    order.push_back(100);
    s.after(seconds(30), [&] { order.push_back(101); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 100, 5, 6, 101, 7, 8, 9}));
}

TEST(Scheduler, IdleGapThenLateEventFires) {
  // A lone far-future event forces the wheel to skip a long empty stretch
  // (cursor jumps, not tick-by-tick crawling).
  Scheduler s;
  Time fired_at = -1;
  s.at(seconds(7200), [&] { fired_at = s.now(); });
  s.run();
  EXPECT_EQ(fired_at, seconds(7200));
  EXPECT_EQ(s.now(), seconds(7200));
}

TEST(Scheduler, CoarseWindowBoundaryDoesNotLeapfrogParkedEntry) {
  // Regression: B lands one full level-0 window ahead of the cursor (tick
  // delta exactly 256), parking it in a level-1 slot. A fires on the last
  // tick of the window and schedules a nested event one tick past B. The
  // cursor's step off the window edge must cascade the level-1 slot it
  // enters, or the nested tick-257 entry leapfrogs B (tick 256).
  Scheduler s;
  std::vector<int> order;
  s.at(nanoseconds(262000), [&] {  // tick 255
    order.push_back(0);
    s.at(nanoseconds(263415), [&] { order.push_back(2); });  // tick 257
  });
  s.at(nanoseconds(263000), [&] { order.push_back(1); });  // tick 256
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ReadyQueue, TimingWheelPopsInDaryHeapOrder) {
  // Differential test of the scheduler's ready queue against the 4-ary
  // heap as reference: a pseudo-random schedule with bursty times from ns
  // to hours (every wheel level and the overflow heap see traffic), plus
  // pushes between pops at and after the popped time, as nested scheduling
  // does, must pop in the identical order from both containers.
  struct Item {
    Time when = 0;
    std::uint64_t seq = 0;
  };
  struct Before {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };
  TimingWheel<Item, Before> wheel;
  DaryHeap<Item, Before> heap;
  auto push = [&](const Item& x) {
    wheel.push(x);
    heap.push(x);
  };
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::uint64_t seq = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t r = next();
    Time t = 0;
    switch (r % 4) {
      case 0: t = nanoseconds(static_cast<Time>(r % 2000)); break;
      case 1: t = microseconds(static_cast<Time>(r % 5000)); break;
      case 2: t = milliseconds(static_cast<Time>(r % 90000)); break;
      default: t = seconds(static_cast<Time>(r % 9000)); break;
    }
    push({t, seq++});
  }
  std::size_t popped = 0;
  while (!heap.empty()) {
    ASSERT_EQ(wheel.size(), heap.size());
    const Item expected = heap.top();
    const Item got = wheel.top();
    ASSERT_EQ(got.seq, expected.seq) << "pop " << popped;
    ASSERT_EQ(got.when, expected.when) << "pop " << popped;
    heap.pop();
    wheel.pop();
    ++popped;
    if (expected.seq % 7 == 0) {
      // Zero, sub-tick-to-two-tick, or far delays: the short ones land in
      // ticks the cursor is about to drain, next to queued entries.
      const Time spread = static_cast<Time>(expected.seq % 2048);
      const Time delay = expected.seq % 3 == 0   ? 0
                         : expected.seq % 3 == 1 ? nanoseconds(spread)
                                                 : microseconds(spread + 1);
      push({expected.when + delay, seq++});
    }
  }
  EXPECT_TRUE(wheel.empty());
  EXPECT_GT(popped, 4000u);
}

TEST(InplaceFunction, MoveTransfersTheCallable) {
  int hits = 0;
  InplaceFunction<64> f([&hits] { ++hits; });
  InplaceFunction<64> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);
  InplaceFunction<64> h;
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InplaceFunction<64> f([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    InplaceFunction<64> g(std::move(f));
    EXPECT_EQ(token.use_count(), 2) << "move must not duplicate the capture";
    g.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, TimerStartCancelRestart) {
  Scheduler s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.start(microseconds(10));
  EXPECT_TRUE(t.pending());
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
  t.start(microseconds(10));
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, TimerRestartSupersedesPreviousDeadline) {
  Scheduler s;
  std::vector<Time> fire_times;
  Timer t(s, [&] { fire_times.push_back(s.now()); });
  t.start(microseconds(10));
  t.start(microseconds(50));  // replaces the earlier deadline
  s.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], microseconds(50));
}

TEST(Scheduler, TimerDestructionCancelsPendingEvent) {
  Scheduler s;
  int fired = 0;
  {
    Timer t(s, [&] { ++fired; });
    t.start(microseconds(5));
    EXPECT_TRUE(t.pending());
  }
  s.run();
  EXPECT_EQ(fired, 0) << "a destroyed timer's event must not fire";
}

TEST(Scheduler, TimerStartAtAbsoluteTime) {
  Scheduler s;
  Time fired_at = -1;
  Timer t(s, [&] { fired_at = s.now(); });
  s.at(microseconds(5), [&] { t.start_at(microseconds(42)); });
  s.run();
  EXPECT_EQ(fired_at, microseconds(42));
}

TEST(TimeHelpers, ConversionsRoundTrip) {
  EXPECT_EQ(microseconds(1), nanoseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(17)), 17.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(9)), 9.0);
}

TEST(TimeHelpers, TxTimeRoundsUp) {
  // 1 bit at 11 Mbps = 90.909... ns -> 91 ns.
  EXPECT_EQ(tx_time(1, 11.0), 91);
  // 8736 bits at 11 Mbps = 794181.8 ns -> 794182.
  EXPECT_EQ(tx_time(8736, 11.0), 794182);
  // Exact division does not round up: 1000 bits at 1 Mbps = 1 ms.
  EXPECT_EQ(tx_time(1000, 1.0), microseconds(1000));
}

}  // namespace
}  // namespace g80211
