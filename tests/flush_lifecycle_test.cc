// Flush/Finish lifecycle contract, audited across every engine front-end:
// Flush is an idempotent synchronization point (double Flush changes
// nothing), the stream may continue after it (Push after Flush is
// well-defined and still detects), and Flush on an empty stream is a
// no-op rather than an error.
//
// The RestoreLifecycle suite audits the companion durability contract on
// the same surfaces: restore into a fresh instance, restore into an
// instance mid-way through a different stream (full overwrite), double
// restore (idempotent, byte-stable), and restore followed by Reset
// (back to a fresh stream).

#include <algorithm>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "core/partitioned_operator.h"
#include "multi/query_group.h"
#include "parallel/parallel_operator.h"
#include "pipeline/pipeline.h"
#include "query/builder.h"

namespace tpstream {
namespace {

Schema TwoBoolSchema() {
  return Schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});
}

QuerySpec OverlapSpec() {
  QueryBuilder qb(TwoBoolSchema());
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n_a", "A", AggKind::kCount);
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

void ExpectSameSnapshot(const obs::MetricsSnapshot& a,
                        const obs::MetricsSnapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  EXPECT_EQ(a.histograms, b.histograms);
}

/// One a-overlaps-b episode on [base+2, base+9); concludes at base+6.
void PushEpisode(const std::function<void(const Event&)>& push,
                 TimePoint base) {
  for (TimePoint t = 1; t <= 10; ++t) {
    push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)},
               base + t));
  }
}

TEST(FlushLifecycleTest, OperatorFlushOnEmptyAndDoubleFlush) {
  obs::MetricsRegistry metrics;
  TPStreamOperator::Options options;
  options.metrics = &metrics;
  TPStreamOperator op(OverlapSpec(), options, nullptr);

  op.Flush();  // empty stream: well-defined no-op
  EXPECT_EQ(op.num_events(), 0);

  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  op.Flush();
  const obs::MetricsSnapshot once = metrics.Snapshot();
  op.Flush();  // idempotent: second flush observes no new input
  ExpectSameSnapshot(once, metrics.Snapshot());
  // Flush published the matcher gauges.
  EXPECT_EQ(once.gauges.count("matcher.buffer_ema.s0"), 1u);
}

// The statistics gauges refresh every reopt_interval-th consume, not
// only at Flush(). Here consumes are 4 per 400 events (ratio 1/100, below
// 1/64) and all land on odd event counts, so a cadence keyed on the
// event count (num_events % 64 == 0 at a consume) would never publish.
TEST(FlushLifecycleTest, StatsGaugesRefreshBeforeFlushOnSparseConsumes) {
  obs::MetricsRegistry metrics;
  TPStreamOperator::Options options;
  options.metrics = &metrics;
  options.reopt_interval = 64;
  QueryBuilder qb(TwoBoolSchema());
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(1000);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  TPStreamOperator op(spec.value(), options, nullptr);

  // Per 400-event period: A holds on [1, 101), B on [51, 151); the four
  // situation changes fall on event counts 1, 51, 101 and 151 mod 400.
  const auto gauge = [&] {
    return metrics.Snapshot().gauges.at("matcher.buffer_ema.s0");
  };
  const double initial = gauge();
  for (TimePoint t = 1; t <= 8000; ++t) {
    const TimePoint phase = (t - 1) % 400;
    op.Push(Event({Value(phase < 100), Value(phase >= 50 && phase < 150)},
                  t));
  }
  EXPECT_GT(op.num_matches(), 0);
  // 80 consumes so far: the 64th published, no Flush() needed.
  EXPECT_NE(gauge(), initial);
}

TEST(FlushLifecycleTest, OperatorPushAfterFlushKeepsDetecting) {
  std::vector<Event> outputs;
  TPStreamOperator op(OverlapSpec(), {},
                      [&](const Event& e) { outputs.push_back(e); });
  PushEpisode([&](const Event& e) { op.Push(e); }, 0);
  op.Flush();
  ASSERT_EQ(outputs.size(), 1u);

  // The stream resumes with later timestamps; detection must continue
  // with undisturbed state.
  PushEpisode([&](const Event& e) { op.Push(e); }, 100);
  op.Flush();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].t, 106);
  EXPECT_EQ(outputs[1].payload[0].AsInt(), 4);
  EXPECT_EQ(op.num_events(), 20);
}

TEST(FlushLifecycleTest, PartitionedFlushLifecycle) {
  Schema schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool},
                 Field{"key", ValueType::kInt}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  std::vector<Event> outputs;
  PartitionedTPStream op(spec.value(), {},
                         [&](const Event& e) { outputs.push_back(e); });
  op.Flush();  // no partitions exist yet
  for (int64_t key : {1, 2}) {
    PushEpisode(
        [&](const Event& e) {
          Event keyed({e.payload[0], e.payload[1], Value(key)}, e.t);
          op.Push(keyed);
        },
        key * 100);
  }
  op.Flush();
  op.Flush();
  ASSERT_EQ(outputs.size(), 2u);

  PushEpisode(
      [&](const Event& e) {
        Event keyed({e.payload[0], e.payload[1], Value(int64_t{1})}, e.t);
        op.Push(keyed);
      },
      300);
  EXPECT_EQ(outputs.size(), 3u);
}

TEST(FlushLifecycleTest, ParallelFlushLifecycle) {
  Schema schema({Field{"key", ValueType::kInt}, Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "a"))
      .Define("B", FieldRef(2, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  std::vector<Event> outputs;
  std::mutex mutex;
  parallel::ParallelTPStream::Options options;
  options.num_workers = 2;
  parallel::ParallelTPStream op(spec.value(), options, [&](const Event& e) {
    std::lock_guard<std::mutex> lock(mutex);
    outputs.push_back(e);
  });

  op.Flush();  // empty stream
  EXPECT_EQ(op.num_events(), 0);

  for (TimePoint t = 1; t <= 10; ++t) {
    for (int64_t key : {1, 2, 3}) {
      op.Push(Event({Value(key), Value(t >= 2 && t < 6),
                     Value(t >= 4 && t < 9)},
                    t));
    }
  }
  op.Flush();
  op.Flush();  // idempotent
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(op.num_events(), 30);

  // Stream resumes after the synchronization point.
  for (TimePoint t = 101; t <= 110; ++t) {
    const TimePoint r = t - 100;
    op.Push(Event({Value(int64_t{1}), Value(r >= 2 && r < 6),
                   Value(r >= 4 && r < 9)},
                  t));
  }
  op.Flush();
  EXPECT_EQ(outputs.size(), 4u);
}

TEST(FlushLifecycleTest, PipelineFinishLifecycle) {
  obs::MetricsRegistry metrics;
  pipeline::Pipeline p(TwoBoolSchema(), &metrics);
  std::vector<Event> matches;
  p.Detect(OverlapSpec()).Sink([&](const Event& e) { matches.push_back(e); });
  ASSERT_TRUE(p.Finalize().ok());

  p.Finish();  // empty stream
  PushEpisode([&](const Event& e) { p.Push(e); }, 0);
  p.Finish();
  ASSERT_EQ(matches.size(), 1u);
  // Finish now settles the detect engine's published gauges.
  EXPECT_EQ(metrics.Snapshot().gauges.count("matcher.buffer_ema.s0"), 1u);

  const obs::MetricsSnapshot once = metrics.Snapshot();
  p.Finish();  // idempotent
  ExpectSameSnapshot(once, metrics.Snapshot());

  // Finish is a synchronization point, not a terminator: later events
  // still flow and detect.
  PushEpisode([&](const Event& e) { p.Push(e); }, 100);
  p.Finish();
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[1].t, 106);
}

TEST(FlushLifecycleTest, QueryGroupFlushLifecycle) {
  std::vector<Event> outputs;
  multi::QueryGroup group;
  ASSERT_TRUE(group
                  .AddQuery(OverlapSpec(),
                            [&](const Event& e) { outputs.push_back(e); })
                  .ok());

  group.Flush();  // before sealing: well-defined no-op
  EXPECT_FALSE(group.sealed());

  PushEpisode([&](const Event& e) { group.Push(e); }, 0);
  group.Flush();
  group.Flush();  // idempotent
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(group.engine(0)->num_events(), group.num_events());

  PushEpisode([&](const Event& e) { group.Push(e); }, 100);
  group.Flush();
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[1].t, 106);
  EXPECT_EQ(group.num_events(), 20);
}

// ---------------------------------------------------------------------------
// Restore lifecycle matrix.

/// Checkpoint an operator-shaped engine after the base-0 episode and
/// return the blob (10 events pushed, one match emitted at t=6).
template <typename Engine>
std::string CheckpointAfterEpisode(Engine& engine) {
  PushEpisode([&](const Event& e) { engine.Push(e); }, 0);
  ckpt::Writer w;
  engine.Checkpoint(w);
  return w.Take();
}

TEST(RestoreLifecycle, OperatorMatrix) {
  const QuerySpec spec = OverlapSpec();
  std::vector<Event> source_outputs;
  TPStreamOperator source(spec, {},
                          [&](const Event& e) { source_outputs.push_back(e); });
  const std::string blob = CheckpointAfterEpisode(source);
  ASSERT_EQ(source_outputs.size(), 1u);

  // Restore into a fresh instance: the stream continues where the
  // checkpoint left off and the next episode still detects.
  std::vector<Event> outputs;
  TPStreamOperator fresh(spec, {},
                         [&](const Event& e) { outputs.push_back(e); });
  {
    ckpt::Reader r(blob);
    uint64_t offset = 0;
    ASSERT_TRUE(fresh.Restore(r, &offset).ok()) << r.status().ToString();
    EXPECT_EQ(offset, 10u);  // events pushed before the checkpoint
  }
  EXPECT_EQ(fresh.num_events(), 10);
  PushEpisode([&](const Event& e) { fresh.Push(e); }, 100);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 106);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 4);

  // Restore into a used instance mid-way through a *different* stream:
  // the old stream's state (buffers, counters, pending triggers) must be
  // fully overwritten, not merged.
  std::vector<Event> used_outputs;
  TPStreamOperator used(spec, {},
                        [&](const Event& e) { used_outputs.push_back(e); });
  for (TimePoint t = 1; t <= 7; ++t) {
    used.Push(Event({Value(t >= 2), Value(t >= 3)}, 1000 + t));
  }
  used_outputs.clear();
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(used.Restore(r).ok());
  }
  EXPECT_EQ(used.num_events(), 10);
  PushEpisode([&](const Event& e) { used.Push(e); }, 100);
  ASSERT_EQ(used_outputs.size(), outputs.size());
  EXPECT_EQ(used_outputs[0].t, outputs[0].t);
  EXPECT_EQ(used_outputs[0].payload, outputs[0].payload);

  // Double restore is idempotent: re-checkpointing reproduces the blob
  // byte for byte.
  TPStreamOperator twice(spec, {}, nullptr);
  for (int i = 0; i < 2; ++i) {
    ckpt::Reader r(blob);
    ASSERT_TRUE(twice.Restore(r).ok()) << "restore " << i;
  }
  ckpt::Writer w;
  twice.Checkpoint(w);
  EXPECT_EQ(w.buffer(), blob);

  // Restore then Reset: back to a fresh stream — replaying from t=0
  // re-detects (and re-emits) the original episode.
  std::vector<Event> reset_outputs;
  TPStreamOperator cycled(spec, {},
                          [&](const Event& e) { reset_outputs.push_back(e); });
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(cycled.Restore(r).ok());
  }
  cycled.Reset();
  EXPECT_EQ(cycled.num_events(), 0);
  PushEpisode([&](const Event& e) { cycled.Push(e); }, 0);
  ASSERT_EQ(reset_outputs.size(), 1u);
  EXPECT_EQ(reset_outputs[0].t, 6);
}

TEST(RestoreLifecycle, PartitionedMatrix) {
  Schema schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool},
                 Field{"key", ValueType::kInt}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto built = qb.Build();
  ASSERT_TRUE(built.ok());
  const QuerySpec spec = built.value();

  const auto push_keyed = [](PartitionedTPStream& op, int64_t key,
                             TimePoint base) {
    PushEpisode(
        [&](const Event& e) {
          op.Push(Event({e.payload[0], e.payload[1], Value(key)}, e.t));
        },
        base);
  };

  PartitionedTPStream source(spec, {}, nullptr);
  push_keyed(source, 1, 100);
  push_keyed(source, 2, 200);
  ckpt::Writer w;
  source.Checkpoint(w);
  const std::string blob = w.Take();

  // Fresh restore: both partitions come back; key 1 continues its stream.
  std::vector<Event> outputs;
  PartitionedTPStream fresh(spec, {},
                            [&](const Event& e) { outputs.push_back(e); });
  uint64_t offset = 0;
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(fresh.Restore(r, &offset).ok()) << r.status().ToString();
  }
  EXPECT_EQ(offset, 20u);
  EXPECT_EQ(fresh.num_partitions(), 2u);
  push_keyed(fresh, 1, 300);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 306);

  // Restore into an instance holding *different* partitions: the old
  // partition map must be dropped wholesale.
  std::vector<Event> used_outputs;
  PartitionedTPStream used(spec, {},
                           [&](const Event& e) { used_outputs.push_back(e); });
  push_keyed(used, 7, 50);
  push_keyed(used, 8, 50);
  used_outputs.clear();
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(used.Restore(r).ok());
  }
  EXPECT_EQ(used.num_partitions(), 2u);
  EXPECT_EQ(used.num_events(), 20);
  push_keyed(used, 1, 300);
  ASSERT_EQ(used_outputs.size(), 1u);
  EXPECT_EQ(used_outputs[0].t, 306);

  // Double restore reproduces the blob; restore-then-Reset starts over.
  PartitionedTPStream cycled(spec, {}, nullptr);
  for (int i = 0; i < 2; ++i) {
    ckpt::Reader r(blob);
    ASSERT_TRUE(cycled.Restore(r).ok()) << "restore " << i;
  }
  ckpt::Writer again;
  cycled.Checkpoint(again);
  EXPECT_EQ(again.buffer(), blob);
  cycled.Reset();
  EXPECT_EQ(cycled.num_partitions(), 0u);
  EXPECT_EQ(cycled.num_events(), 0);
}

TEST(RestoreLifecycle, ParallelMatrix) {
  Schema schema({Field{"key", ValueType::kInt}, Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "a"))
      .Define("B", FieldRef(2, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto built = qb.Build();
  ASSERT_TRUE(built.ok());
  const QuerySpec spec = built.value();

  parallel::ParallelTPStream::Options options;
  options.num_workers = 2;

  const auto push_round = [](parallel::ParallelTPStream& op, TimePoint base) {
    for (TimePoint t = 1; t <= 10; ++t) {
      for (int64_t key : {1, 2, 3}) {
        op.Push(Event({Value(key), Value(t >= 2 && t < 6),
                       Value(t >= 4 && t < 9)},
                      base + t));
      }
    }
  };

  parallel::ParallelTPStream source(spec, options, nullptr);
  push_round(source, 0);
  ckpt::Writer w;
  source.Checkpoint(w);  // quiescent: flushes the workers first
  const std::string blob = w.Take();

  // Fresh restore with the same worker count resumes all partitions.
  std::vector<Event> outputs;
  std::mutex mutex;
  parallel::ParallelTPStream fresh(spec, options, [&](const Event& e) {
    std::lock_guard<std::mutex> lock(mutex);
    outputs.push_back(e);
  });
  uint64_t offset = 0;
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(fresh.Restore(r, &offset).ok()) << r.status().ToString();
  }
  EXPECT_EQ(offset, 30u);
  EXPECT_EQ(fresh.num_events(), 30);
  push_round(fresh, 100);
  fresh.Flush();
  ASSERT_EQ(outputs.size(), 3u);  // one per key, from the resumed round

  // Double restore re-checkpoints byte-identically; Reset then replays
  // the stream from scratch.
  parallel::ParallelTPStream cycled(spec, options, nullptr);
  for (int i = 0; i < 2; ++i) {
    ckpt::Reader r(blob);
    ASSERT_TRUE(cycled.Restore(r).ok()) << "restore " << i;
  }
  ckpt::Writer again;
  cycled.Checkpoint(again);
  EXPECT_EQ(again.buffer(), blob);
  cycled.Reset();
  EXPECT_EQ(cycled.num_events(), 0);
  push_round(cycled, 0);
  cycled.Flush();
  EXPECT_EQ(cycled.num_events(), 30);
}

TEST(RestoreLifecycle, PipelineMatrix) {
  const auto build = [](std::vector<Event>* matches) {
    auto p = std::make_unique<pipeline::Pipeline>(TwoBoolSchema());
    p->Reorder(4).Detect(OverlapSpec());
    if (matches != nullptr) {
      p->Sink([matches](const Event& e) { matches->push_back(e); });
    } else {
      p->Sink([](const Event&) {});
    }
    EXPECT_TRUE(p->Finalize().ok());
    return p;
  };

  auto source = build(nullptr);
  const std::string blob = CheckpointAfterEpisode(*source);

  // Fresh restore on an identically built chain: the reorder stage's
  // buffered tail and the detect engine both come back, and the stream
  // continues from the checkpoint offset.
  std::vector<Event> matches;
  auto fresh = build(&matches);
  uint64_t offset = 0;
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(fresh->Restore(r, &offset).ok()) << r.status().ToString();
  }
  EXPECT_EQ(offset, 10u);
  EXPECT_EQ(fresh->num_pushed(), 10);
  PushEpisode([&](const Event& e) { fresh->Push(e); }, 100);
  fresh->Finish();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].t, 106);

  // Restore into a pipeline mid-way through a different stream.
  std::vector<Event> used_matches;
  auto used = build(&used_matches);
  for (TimePoint t = 1; t <= 6; ++t) {
    used->Push(Event({Value(true), Value(false)}, 1000 + t));
  }
  used_matches.clear();
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(used->Restore(r).ok());
  }
  PushEpisode([&](const Event& e) { used->Push(e); }, 100);
  used->Finish();
  ASSERT_EQ(used_matches.size(), 1u);
  EXPECT_EQ(used_matches[0].t, 106);

  // Double restore: byte-stable. Restore-then-Reset: fresh stream.
  auto cycled = build(nullptr);
  for (int i = 0; i < 2; ++i) {
    ckpt::Reader r(blob);
    ASSERT_TRUE(cycled->Restore(r).ok()) << "restore " << i;
  }
  ckpt::Writer again;
  cycled->Checkpoint(again);
  EXPECT_EQ(again.buffer(), blob);
  cycled->Reset();
  EXPECT_EQ(cycled->num_pushed(), 0);
}

TEST(RestoreLifecycle, QueryGroupMatrix) {
  const auto build = [](std::vector<Event>* outputs) {
    auto group = std::make_unique<multi::QueryGroup>();
    auto added = group->AddQuery(OverlapSpec(), [outputs](const Event& e) {
      if (outputs != nullptr) outputs->push_back(e);
    });
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    return group;
  };

  auto source = build(nullptr);
  const std::string blob = CheckpointAfterEpisode(*source);

  // Restore seals an unsealed group with the same registered queries.
  std::vector<Event> outputs;
  auto fresh = build(&outputs);
  EXPECT_FALSE(fresh->sealed());
  uint64_t offset = 0;
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(fresh->Restore(r, &offset).ok()) << r.status().ToString();
  }
  EXPECT_TRUE(fresh->sealed());
  EXPECT_EQ(offset, 10u);
  EXPECT_EQ(fresh->num_events(), 10);
  PushEpisode([&](const Event& e) { fresh->Push(e); }, 100);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 106);

  // Restore into a group mid-way through another stream overwrites it.
  std::vector<Event> used_outputs;
  auto used = build(&used_outputs);
  for (TimePoint t = 1; t <= 5; ++t) {
    used->Push(Event({Value(true), Value(true)}, 500 + t));
  }
  used_outputs.clear();
  {
    ckpt::Reader r(blob);
    ASSERT_TRUE(used->Restore(r).ok());
  }
  EXPECT_EQ(used->num_events(), 10);
  PushEpisode([&](const Event& e) { used->Push(e); }, 100);
  ASSERT_EQ(used_outputs.size(), 1u);
  EXPECT_EQ(used_outputs[0].t, 106);

  // Double restore: byte-stable. Restore-then-Reset: replay from zero
  // re-emits (the Reset fingerprint bug would suppress this).
  std::vector<Event> cycled_outputs;
  auto cycled = build(&cycled_outputs);
  for (int i = 0; i < 2; ++i) {
    ckpt::Reader r(blob);
    ASSERT_TRUE(cycled->Restore(r).ok()) << "restore " << i;
  }
  ckpt::Writer again;
  cycled->Checkpoint(again);
  EXPECT_EQ(again.buffer(), blob);
  cycled->Reset();
  EXPECT_EQ(cycled->num_events(), 0);
  cycled_outputs.clear();
  PushEpisode([&](const Event& e) { cycled->Push(e); }, 0);
  ASSERT_EQ(cycled_outputs.size(), 1u);
  EXPECT_EQ(cycled_outputs[0].t, 6);
}

}  // namespace
}  // namespace tpstream
