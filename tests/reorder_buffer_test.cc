#include "ooo/reorder_buffer.h"

#include <random>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "query/builder.h"
#include "robust/dead_letter.h"

namespace tpstream {
namespace {

Event Ev(TimePoint t) { return Event({Value(true)}, t); }

TEST(ReorderBufferTest, ReordersWithinSlack) {
  ooo::ReorderBuffer reorder({/*slack=*/5});
  std::vector<TimePoint> released;
  auto sink = [&](const Event& e) { released.push_back(e.t); };

  // Arrival order: 3, 1, 2, 9 (releases up to 9-5=4), 7, 15, flush.
  for (TimePoint t : {3, 1, 2, 9, 7, 15}) reorder.Push(Ev(t), sink);
  reorder.Flush(sink);

  EXPECT_EQ(released, (std::vector<TimePoint>{1, 2, 3, 7, 9, 15}));
  EXPECT_EQ(reorder.num_reordered(), 3);  // 1, 2 and 7 arrived late
  EXPECT_EQ(reorder.num_dropped(), 0);
}

TEST(ReorderBufferTest, DropsEventsBeyondSlack) {
  ooo::ReorderBuffer reorder({/*slack=*/2});
  std::vector<TimePoint> released;
  std::vector<TimePoint> late;
  reorder.SetLateCallback([&](const Event& e) { late.push_back(e.t); });
  auto sink = [&](const Event& e) { released.push_back(e.t); };

  reorder.Push(Ev(10), sink);  // watermark 8
  reorder.Push(Ev(20), sink);  // releases 10; watermark 18
  reorder.Push(Ev(5), sink);   // older than last release: dropped
  reorder.Flush(sink);

  EXPECT_EQ(released, (std::vector<TimePoint>{10, 20}));
  EXPECT_EQ(late, (std::vector<TimePoint>{5}));
  EXPECT_EQ(reorder.num_dropped(), 1);
}

// Regression for the move-Push late path: the late callback must observe
// the event *before* it is moved anywhere, and the dead-letter sink must
// then receive the same intact event (not a moved-from husk).
TEST(ReorderBufferTest, LateMovePushDeliversIntactEvent) {
  robust::CollectingDeadLetterSink dead_letter(8);
  ooo::ReorderBuffer::Options options;
  options.slack = 2;
  options.dead_letter = &dead_letter;
  ooo::ReorderBuffer reorder(options);

  int late_calls = 0;
  reorder.SetLateCallback([&](const Event& e) {
    ++late_calls;
    EXPECT_EQ(e.t, 5);
    ASSERT_EQ(e.payload.size(), 1u);
    EXPECT_TRUE(e.payload[0].AsBool());
  });
  auto sink = [](const Event&) {};

  reorder.Push(Ev(10), sink);
  reorder.Push(Ev(20), sink);
  Event late_event = Ev(5);
  reorder.Push(std::move(late_event), sink);  // move overload, late

  EXPECT_EQ(late_calls, 1);
  const auto items = dead_letter.Items();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].kind, robust::DeadLetterKind::kLateEvent);
  ASSERT_EQ(items[0].events.size(), 1u);
  EXPECT_EQ(items[0].events[0].t, 5);
  ASSERT_EQ(items[0].events[0].payload.size(), 1u);
  EXPECT_TRUE(items[0].events[0].payload[0].AsBool());
  EXPECT_FALSE(items[0].detail.empty());
}

// The copy-Push overload must quarantine a copy and leave the caller's
// event untouched.
TEST(ReorderBufferTest, LateCopyPushLeavesCallerEventUntouched) {
  robust::CollectingDeadLetterSink dead_letter(8);
  ooo::ReorderBuffer::Options options;
  options.slack = 2;
  options.dead_letter = &dead_letter;
  ooo::ReorderBuffer reorder(options);
  auto sink = [](const Event&) {};

  reorder.Push(Ev(10), sink);
  reorder.Push(Ev(20), sink);
  const Event late_event = Ev(5);
  reorder.Push(late_event, sink);

  ASSERT_EQ(late_event.payload.size(), 1u);
  EXPECT_TRUE(late_event.payload[0].AsBool());
  const auto items = dead_letter.Items();
  ASSERT_EQ(items.size(), 1u);
  ASSERT_EQ(items[0].events.size(), 1u);
  EXPECT_EQ(items[0].events[0].t, 5);
}

TEST(ReorderBufferTest, TiesAcrossPartitionsPassThrough) {
  ooo::ReorderBuffer reorder({/*slack=*/0});
  std::vector<TimePoint> released;
  auto sink = [&](const Event& e) { released.push_back(e.t); };
  reorder.Push(Ev(4), sink);
  reorder.Push(Ev(4), sink);  // same tick, different partition: kept
  reorder.Push(Ev(5), sink);
  reorder.Flush(sink);
  EXPECT_EQ(released, (std::vector<TimePoint>{4, 4, 5}));
  EXPECT_EQ(reorder.num_dropped(), 0);
}

TEST(ReorderBufferTest, TieWithLastReleaseIsAcceptedStrictlyOlderDropped) {
  ooo::ReorderBuffer reorder({/*slack=*/0});
  std::vector<TimePoint> released;
  std::vector<TimePoint> late;
  reorder.SetLateCallback([&](const Event& e) { late.push_back(e.t); });
  auto sink = [&](const Event& e) { released.push_back(e.t); };

  reorder.Push(Ev(10), sink);  // released immediately (slack 0)
  reorder.Push(Ev(10), sink);  // t == last release: accepted and released
  reorder.Push(Ev(9), sink);   // strictly older: dropped + reported
  reorder.Push(Ev(11), sink);

  EXPECT_EQ(released, (std::vector<TimePoint>{10, 10, 11}));
  EXPECT_EQ(late, (std::vector<TimePoint>{9}));
  EXPECT_EQ(reorder.num_dropped(), 1);
}

TEST(ReorderBufferTest, FlushLeavesWatermarkConsistent) {
  ooo::ReorderBuffer reorder({/*slack=*/100});
  std::vector<TimePoint> released;
  auto sink = [&](const Event& e) { released.push_back(e.t); };

  for (TimePoint t : {10, 30, 20}) reorder.Push(Ev(t), sink);
  EXPECT_TRUE(released.empty());  // all within slack of max_seen
  EXPECT_EQ(reorder.buffered(), 3u);

  reorder.Flush(sink);
  EXPECT_EQ(released, (std::vector<TimePoint>{10, 20, 30}));
  EXPECT_EQ(reorder.buffered(), 0u);
  // The watermark advanced to the last released timestamp: ties are
  // still accepted afterwards, strictly older events are late.
  EXPECT_EQ(reorder.watermark(), 30);
  reorder.Push(Ev(30), sink);
  reorder.Push(Ev(29), sink);
  reorder.Flush(sink);
  EXPECT_EQ(released, (std::vector<TimePoint>{10, 20, 30, 30}));
  EXPECT_EQ(reorder.num_dropped(), 1);
}

// Regression: `watermark = max_seen - slack` used to be a raw signed
// subtraction, which is UB (and wrapped to a huge positive watermark,
// releasing everything prematurely) for timestamps within `slack` of
// kTimeMin. The subtraction must saturate. Run under UBSan to verify.
TEST(ReorderBufferTest, TimeMinAdjacentTimestampsSaturateTheWatermark) {
  ooo::ReorderBuffer reorder({/*slack=*/100});
  std::vector<TimePoint> released;
  auto sink = [&](const Event& e) { released.push_back(e.t); };

  // kTimeMin itself ties with the initial watermark (degenerate but
  // well-defined: released immediately, like any tie).
  reorder.Push(Ev(kTimeMin), sink);
  EXPECT_EQ(released, (std::vector<TimePoint>{kTimeMin}));

  // kTimeMin + 1 must be HELD: no event >= t + slack has been seen. The
  // wrapped watermark would have released it here.
  reorder.Push(Ev(kTimeMin + 1), sink);
  EXPECT_EQ(released.size(), 1u);
  EXPECT_EQ(reorder.buffered(), 1u);
  EXPECT_EQ(reorder.watermark(), kTimeMin);

  // Once max_seen clears kTimeMin + slack the watermark advances
  // normally and releases the held event.
  reorder.Push(Ev(kTimeMin + 150), sink);
  EXPECT_EQ(released,
            (std::vector<TimePoint>{kTimeMin, kTimeMin + 1}));
  EXPECT_EQ(reorder.watermark(), kTimeMin + 50);

  reorder.Flush(sink);
  EXPECT_EQ(released, (std::vector<TimePoint>{kTimeMin, kTimeMin + 1,
                                              kTimeMin + 150}));
  EXPECT_EQ(reorder.num_dropped(), 0);
}

TEST(ReorderBufferTest, NegativeSlackIsClampedToZero) {
  ooo::ReorderBuffer reorder({/*slack=*/-5});
  std::vector<TimePoint> released;
  auto sink = [&](const Event& e) { released.push_back(e.t); };
  reorder.Push(Ev(7), sink);  // slack 0: released immediately, no UB
  EXPECT_EQ(released, (std::vector<TimePoint>{7}));
  EXPECT_EQ(reorder.watermark(), 7);
}

// Shuffled stream + sufficient slack must reproduce the in-order results
// of the operator exactly.
TEST(ReorderBufferTest, OperatorResultsMatchInOrderRun) {
  Schema schema({Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "flag"))
      .Define("B", Not(FieldRef(0, "flag")))
      .Relate("A", Relation::kMeets, "B")
      .Within(500)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  // A boolean trace with several phases.
  std::mt19937_64 rng(5);
  std::vector<Event> events;
  bool value = false;
  std::bernoulli_distribution flip(0.1);
  for (TimePoint t = 1; t <= 2000; ++t) {
    if (flip(rng)) value = !value;
    events.push_back(Event({Value(value)}, t));
  }

  std::vector<TimePoint> in_order;
  {
    TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
      in_order.push_back(e.t);
    });
    for (const Event& e : events) op.Push(e);
  }

  // Shuffle within windows of 8 events, reorder with slack 8.
  std::vector<Event> shuffled = events;
  for (size_t i = 0; i + 8 <= shuffled.size(); i += 8) {
    std::shuffle(shuffled.begin() + i, shuffled.begin() + i + 8, rng);
  }
  std::vector<TimePoint> reordered_result;
  {
    TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
      reordered_result.push_back(e.t);
    });
    ooo::ReorderBuffer reorder({/*slack=*/8});
    auto sink = [&](const Event& e) { op.Push(e); };
    for (const Event& e : shuffled) reorder.Push(e, sink);
    reorder.Flush(sink);
    EXPECT_EQ(reorder.num_dropped(), 0);
    EXPECT_GT(reorder.num_reordered(), 0);
  }
  EXPECT_EQ(reordered_result, in_order);
}

// Released heap slots stay in the array (with their payload storage) for
// reuse. They must never show: a buffer with many retained slots and one
// restored from its checkpoint (none retained) release identical streams
// and serialize byte-identical checkpoints from then on, with equal-
// timestamp ties and mixed payload sizes in play.
TEST(ReorderBufferTest, RetainedSlotsNeverShowInOrderOrCheckpoints) {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> jitter(0, 11);
  std::uniform_int_distribution<int> width(0, 4);
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 3000; ++t) {
    Tuple payload;
    for (int i = width(rng); i >= 0; --i) payload.push_back(Value(t * 10 + i));
    // Pairs share a timestamp so tie order depends on the heap layout.
    events.push_back(Event(std::move(payload), t / 2 + jitter(rng)));
  }
  const ooo::ReorderBuffer::Options options{/*slack=*/12};

  std::vector<Event> out_a;
  ooo::ReorderBuffer a(options);
  const auto sink_a = [&](const Event& e) { out_a.push_back(e); };
  size_t i = 0;
  for (; i < 1500; ++i) a.Push(events[i], sink_a);

  ckpt::Writer cut;
  a.Checkpoint(cut);
  ooo::ReorderBuffer b(options);
  ckpt::Reader r(cut.buffer());
  ASSERT_TRUE(b.Restore(r).ok());
  std::vector<Event> out_b = out_a;
  const auto sink_b = [&](const Event& e) { out_b.push_back(e); };

  for (; i < events.size(); ++i) {
    a.Push(events[i], sink_a);
    b.Push(Event(events[i]), sink_b);  // the move overload
    ASSERT_EQ(a.buffered(), b.buffered());
    if (i % 97 == 0) {
      ckpt::Writer wa;
      ckpt::Writer wb;
      a.Checkpoint(wa);
      b.Checkpoint(wb);
      ASSERT_EQ(wa.buffer(), wb.buffer()) << "after event " << i;
    }
  }
  a.Flush(sink_a);
  b.Flush(sink_b);
  EXPECT_GT(a.num_reordered(), 0);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (size_t k = 0; k < out_a.size(); ++k) {
    ASSERT_EQ(out_a[k].t, out_b[k].t) << "release " << k;
    ASSERT_EQ(out_a[k].payload, out_b[k].payload) << "release " << k;
  }
}

}  // namespace
}  // namespace tpstream
