// Ingestion-path contract tests for the batched, move-aware Push API:
//
//  1. Steady-state sequential ingestion performs ZERO heap allocations
//     per event (counting global operator new, in the style of
//     partition_hash_test.cc) when the static analysis proves
//     exactly-once delivery and no metrics are attached — also with an
//     output callback, a match observer and a RETURN aggregate over a
//     still-ongoing situation — and so do the reorder stage and the
//     multi-query fan-out of a QueryGroup.
//  2. PushBatch() is differentially equivalent to per-event Push() for
//     the sequential, partitioned, and parallel (1/2/4 workers)
//     operators: identical matches and identical event/match counters.
//  3. The move overloads flow through Pipeline (Reorder + Detect) with
//     results identical to copying ingestion.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/detection.h"
#include "core/operator.h"
#include "core/partitioned_operator.h"
#include "multi/query_group.h"
#include "ooo/reorder_buffer.h"
#include "parallel/parallel_operator.h"
#include "pipeline/pipeline.h"
#include "query/builder.h"
#include "query/parser.h"
#include "workload/market.h"
#include "workload/synthetic.h"

// Counting global allocator: every operator new in this binary bumps the
// counter, so a test can assert a region of code performs none.
namespace {
std::atomic<size_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpstream {
namespace {

/// "A before B" over two boolean streams, no aggregates (interval-
/// accessor RETURN only), no partitioning: the allocation-free profile
/// (empty aggregate snapshots, dedup statically proven unnecessary).
QuerySpec BeforeSpec() {
  Schema schema(
      {Field{"s0", ValueType::kBool}, Field{"s1", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "s0"))
      .Define("B", FieldRef(1, "s1"))
      .Relate("A", Relation::kBefore, "B")
      .Within(150)
      .ReturnStart("a_start", "A");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

TEST(IngestAllocationTest, SteadyStateSequentialIngestIsAllocationFree) {
  const QuerySpec spec = BeforeSpec();
  // Precondition for the strongest claim: the analysis proves
  // exactly-once delivery, so the fingerprint table is never touched.
  {
    DetectionAnalysis analysis(
        spec.pattern,
        std::vector<DurationConstraint>(spec.pattern.num_symbols()));
    ASSERT_FALSE(analysis.needs_dedup());
  }

  for (const bool low_latency : {true, false}) {
    TPStreamOperator::Options options;
    options.low_latency = low_latency;
    options.adaptive = false;  // controller re-optimization allocates
    TPStreamOperator op(spec, options, /*output=*/nullptr);

    SyntheticGenerator gen({.num_streams = 2, .seed = 9});
    Event scratch;

    // Warmup: situation buffers grow to their window-bounded size, all
    // scratch vectors reach steady capacity.
    for (int i = 0; i < 20000; ++i) {
      gen.Next(&scratch);
      op.Push(scratch);
    }

    const int64_t matches_before = op.num_matches();
    const size_t before =
        g_allocation_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 20000; ++i) {
      gen.Next(&scratch);
      op.Push(scratch);
    }
    const size_t after = g_allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after, before)
        << (low_latency ? "low-latency" : "baseline")
        << " ingest allocated on the hot path ("
        << (after - before) << " allocations / 20000 events)";
    // The measurement window must actually exercise the matcher.
    EXPECT_GT(op.num_matches(), matches_before);
  }
}

/// The synth_dense shape over three boolean streams: `A before B AND B
/// overlaps C` with `RETURN count(C.s2)`. In low-latency mode the match
/// concludes when C starts, so the RETURN aggregate is read from a
/// situation that is still being derived.
QuerySpec OngoingAggregateSpec() {
  Schema schema({Field{"s0", ValueType::kBool}, Field{"s1", ValueType::kBool},
                 Field{"s2", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "s0"))
      .Define("B", FieldRef(1, "s1"))
      .Define("C", FieldRef(2, "s2"))
      .Relate("A", Relation::kBefore, "B")
      .Relate("B", Relation::kOverlaps, "C")
      .Within(2000)
      .Return("nc", "C", AggKind::kCount, "s2");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

// The emission path itself: multi-candidate runs reach the output
// callback and the match observer, a RETURN aggregate is read over an
// ongoing situation, and still nothing allocates (runs and Matches are
// views, RETURN is projected into a reused Event, situation payloads are
// recycled between deriver and matcher).
TEST(IngestAllocationTest, SteadyStateEmissionIsAllocationFree) {
  const QuerySpec spec = OngoingAggregateSpec();
  {
    DetectionAnalysis analysis(
        spec.pattern,
        std::vector<DurationConstraint>(spec.pattern.num_symbols()));
    ASSERT_FALSE(analysis.needs_dedup());
  }

  TPStreamOperator::Options options;
  options.low_latency = true;
  options.adaptive = false;  // controller re-optimization allocates
  int64_t outputs = 0;
  int64_t count_sum = 0;
  TPStreamOperator op(spec, options, [&](const Event& e) {
    ++outputs;
    count_sum += e.payload[0].AsInt();
  });
  int64_t observed = 0;
  int64_t ongoing_c = 0;
  // Matches that follow one with the same detection time and the same
  // situations for all but one symbol: the later members of a
  // multi-candidate run.
  int64_t run_followers = 0;
  std::array<const Situation*, 3> previous{};
  TimePoint previous_at = kTimeMin;
  op.SetMatchObserver([&](const Match& m) {
    ++observed;
    if (m[2].ongoing()) ++ongoing_c;
    int differing = 0;
    for (size_t i = 0; i < previous.size(); ++i) {
      if (m.situations[i] != previous[i]) ++differing;
      previous[i] = m.situations[i];
    }
    if (differing == 1 && m.detected_at == previous_at) ++run_followers;
    previous_at = m.detected_at;
  });

  SyntheticGenerator gen({.num_streams = 3, .seed = 9});
  Event scratch;
  for (int i = 0; i < 20000; ++i) {
    gen.Next(&scratch);
    op.Push(scratch);
  }

  const int64_t matches_before = op.num_matches();
  const int64_t ongoing_before = ongoing_c;
  const int64_t followers_before = run_followers;
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) {
    gen.Next(&scratch);
    op.Push(scratch);
  }
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "emission allocated on the hot path ("
                           << (after - before)
                           << " allocations / 20000 events)";
  EXPECT_GT(op.num_matches(), matches_before);
  // The RETURN aggregate was read from ongoing C situations.
  EXPECT_GT(ongoing_c, ongoing_before);
  // Multi-candidate runs were emitted.
  EXPECT_GT(run_followers, followers_before);
  EXPECT_EQ(outputs, op.num_matches());
  EXPECT_EQ(observed, op.num_matches());
  EXPECT_GT(count_sum, 0);
}

// The multi-query fan-out: one shared deriver with more distinct
// definitions than fit one mask word, every situation copied to each
// subscribing query with its RETURN aggregates, low-latency and adaptive
// on, driven in prepared batches. After warm-up nothing allocates: the
// copies land in payload storage the engines swapped back.
//
// The controller keeps checking drift every reopt_interval consumes, but
// its threshold is infinite (a statistic that starts at zero drifts
// by ~1e9x on its first nonzero sample): a re-plan builds a plan key and
// inserts a plan-memo entry on a miss, which allocate and are not part
// of the fan-out. The test asserts that no re-plan ran in the window.
TEST(IngestAllocationTest, SteadyStateMultiQueryFanOutIsAllocationFree) {
  MarketDataGenerator gen({.num_symbols = 1, .seed = 5});
  multi::QueryGroup::Options options;
  options.low_latency = true;
  options.adaptive = true;
  options.reopt_threshold = std::numeric_limits<double>::infinity();
  options.compiled_predicates = true;
  multi::QueryGroup group(options);
  int64_t outputs = 0;
  double price_sum = 0;
  constexpr int kQueries = 36;
  for (int i = 0; i < kQueries; ++i) {
    // X and Y thresholds/durations are unique per query: 72 distinct
    // definitions in the shared deriver.
    const std::string text =
        "FROM M DEFINE X AS ret > 0.0" + std::to_string(2 + i % 6) +
        " AT LEAST " + std::to_string(2 + i / 6) + ", Y AS volume > " +
        std::to_string(150 + 5 * i) + " AT LEAST 2 PATTERN " +
        (i % 2 == 0 ? "X before Y" : "X overlaps Y; X during Y; X meets Y") +
        " WITHIN 300 RETURN first(X.price) AS px, first(Y.price) AS py";
    auto spec = query::ParseQuery(text, gen.schema());
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_TRUE(group
                    .AddQuery(spec.value(),
                              [&](const Event& e) {
                                ++outputs;
                                price_sum += e.payload[0].AsDouble();
                              })
                    .ok());
  }

  std::vector<Event> events(40000);
  for (Event& e : events) e = gen.Next();
  const std::span<Event> all(events);
  constexpr size_t kBatch = 256;
  for (size_t i = 0; i < 20480; i += kBatch) {
    group.PushBatch(all.subspan(i, kBatch));
  }
  ASSERT_EQ(group.num_distinct_definitions(), 2 * kQueries);

  const int64_t outputs_before = outputs;
  const int64_t plans_before =
      group.plan_cache_hits() + group.plan_cache_misses();
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (size_t i = 20480; i + kBatch <= events.size(); i += kBatch) {
    group.PushBatch(all.subspan(i, kBatch));
  }
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);
  ASSERT_EQ(group.plan_cache_hits() + group.plan_cache_misses(),
            plans_before);

  EXPECT_EQ(after, before) << "fan-out allocated on the hot path ("
                           << (after - before) << " allocations / "
                           << group.num_events() - 20480 << " events)";
  EXPECT_GT(outputs, outputs_before);
  EXPECT_GT(price_sum, 0);
}

// The reorder stage keeps released heap slots and their payload storage,
// so buffering a disordered stream copies each event into retained
// capacity instead of allocating.
TEST(IngestAllocationTest, SteadyStateReorderIsAllocationFree) {
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 40000; ++t) {
    const TimePoint shuffled = (t & ~7) | ((t & 7) ^ 5);  // within 8
    events.push_back(Event({Value(shuffled), Value(true)}, shuffled));
  }
  ooo::ReorderBuffer reorder({/*slack=*/8});
  int64_t released = 0;
  const ooo::ReorderBuffer::Sink sink = [&](const Event&) { ++released; };
  for (size_t i = 0; i < 20000; ++i) reorder.Push(events[i], sink);

  const int64_t released_before = released;
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (size_t i = 20000; i < events.size(); ++i) {
    reorder.Push(events[i], sink);
  }
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "reorder allocated on the hot path ("
                           << (after - before)
                           << " allocations / 20000 events)";
  EXPECT_GT(reorder.num_reordered(), 0);
  EXPECT_EQ(reorder.num_dropped(), 0);
  EXPECT_GT(released, released_before);
}

/// Integer-keyed partitioned query with aggregates: the differential
/// workload (allocation-freedom is not claimed here, equivalence is).
QuerySpec KeyedSpec() {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(120)
      .Return("key", "A", AggKind::kFirst, "key")
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

std::vector<Event> KeyedEvents(int num_keys, TimePoint horizon) {
  std::vector<Event> events;
  std::vector<bool> value(num_keys, false);
  uint64_t state = 0x9e3779b97f4a7c15ull;  // deterministic LCG-ish flips
  for (TimePoint t = 1; t <= horizon; ++t) {
    for (int k = 0; k < num_keys; ++k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      if ((state >> 33) % 100 < 9) value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

using Signature = std::vector<std::string>;

std::string Describe(const Event& e) {
  std::string out = std::to_string(e.t);
  for (const Value& v : e.payload) out += "|" + v.ToString();
  return out;
}

TEST(PushBatchDifferentialTest, SequentialOperator) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedEvents(1, 800);

  Signature per_event;
  TPStreamOperator ref(spec, {}, [&](const Event& e) {
    per_event.push_back(Describe(e));
  });
  for (const Event& e : events) ref.Push(e);

  Signature batched;
  TPStreamOperator op(spec, {}, [&](const Event& e) {
    batched.push_back(Describe(e));
  });
  std::vector<Event> copy = events;
  for (size_t i = 0; i < copy.size(); i += 7) {
    op.PushBatch(std::span<Event>(copy.data() + i,
                                  std::min<size_t>(7, copy.size() - i)));
  }

  ASSERT_FALSE(per_event.empty());
  EXPECT_EQ(batched, per_event);
  EXPECT_EQ(op.num_events(), ref.num_events());
  EXPECT_EQ(op.num_matches(), ref.num_matches());
}

TEST(PushBatchDifferentialTest, PartitionedOperator) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedEvents(5, 500);

  Signature per_event;
  PartitionedTPStream ref(spec, {}, [&](const Event& e) {
    per_event.push_back(Describe(e));
  });
  for (const Event& e : events) ref.Push(e);

  Signature batched;
  PartitionedTPStream op(spec, {}, [&](const Event& e) {
    batched.push_back(Describe(e));
  });
  // Const span: events are not consumed.
  op.PushBatch(std::span<const Event>(events));

  ASSERT_FALSE(per_event.empty());
  EXPECT_EQ(batched, per_event);
  EXPECT_EQ(op.num_events(), ref.num_events());
  EXPECT_EQ(op.num_matches(), ref.num_matches());
  EXPECT_EQ(op.num_partitions(), ref.num_partitions());
}

TEST(PushBatchDifferentialTest, ParallelOperatorAcrossWorkerCounts) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedEvents(7, 500);

  Signature reference;
  {
    PartitionedTPStream ref(spec, {}, [&](const Event& e) {
      reference.push_back(Describe(e));
    });
    for (const Event& e : events) ref.Push(e);
  }
  ASSERT_FALSE(reference.empty());
  std::sort(reference.begin(), reference.end());

  for (const int workers : {1, 2, 4}) {
    Signature batched;
    std::mutex mutex;
    parallel::ParallelTPStream::Options options;
    options.num_workers = workers;
    options.batch_size = 32;
    parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
      std::lock_guard<std::mutex> lock(mutex);
      batched.push_back(Describe(e));
    });
    // The mutable-span overload moves the payloads out, so feed a copy.
    std::vector<Event> copy = events;
    for (size_t i = 0; i < copy.size(); i += 13) {
      op.PushBatch(std::span<Event>(
          copy.data() + i, std::min<size_t>(13, copy.size() - i)));
    }
    op.Flush();

    std::sort(batched.begin(), batched.end());
    EXPECT_EQ(batched, reference) << workers << " workers";
    EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()))
        << workers << " workers";
    EXPECT_EQ(op.num_matches(), static_cast<int64_t>(reference.size()))
        << workers << " workers";
  }
}

TEST(PushBatchDifferentialTest, PipelineWithReorderAndDetect) {
  const QuerySpec spec = KeyedSpec();
  std::vector<Event> events = KeyedEvents(3, 400);
  // Mild bounded disorder to exercise the reorder stage's move path.
  for (size_t i = 0; i + 4 < events.size(); i += 5) {
    std::swap(events[i], events[i + 2]);
  }

  auto run = [&](bool batched) {
    Signature out;
    pipeline::Pipeline p(spec.input_schema);
    p.Reorder(/*slack=*/10)
        .Detect(spec)
        .Sink([&](const Event& e) { out.push_back(Describe(e)); });
    EXPECT_TRUE(p.Finalize().ok());
    if (batched) {
      std::vector<Event> copy = events;
      p.PushBatch(std::span<Event>(copy));
    } else {
      for (const Event& e : events) p.Push(e);
    }
    p.Finish();
    return out;
  };

  const Signature per_event = run(false);
  const Signature batched = run(true);
  ASSERT_FALSE(per_event.empty());
  EXPECT_EQ(batched, per_event);
}

}  // namespace
}  // namespace tpstream
