// Overflow-safe overload accounting: the lost-match upper bound and the
// counters multiplied out of it saturate at int64 max instead of
// wrapping into meaningless (possibly negative) values, and the `robust.*`
// registry counters stay consistent with the operator accessors.

#include "robust/saturating.h"

#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "tests/fault_injection.h"

namespace tpstream {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(SaturatingTest, AddSaturatesAtBoundary) {
  EXPECT_EQ(robust::SaturatingAdd(0, 0), 0);
  EXPECT_EQ(robust::SaturatingAdd(2, 3), 5);
  EXPECT_EQ(robust::SaturatingAdd(kMax, 0), kMax);
  EXPECT_EQ(robust::SaturatingAdd(kMax - 1, 1), kMax);
  EXPECT_EQ(robust::SaturatingAdd(kMax - 1, 2), kMax);
  EXPECT_EQ(robust::SaturatingAdd(kMax, kMax), kMax);
  EXPECT_EQ(robust::SaturatingAdd(kMax / 2, kMax / 2 + 1), kMax);
}

TEST(SaturatingTest, SignedAddSubSaturateAtBothLimits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(robust::SaturatingAdd(-5, 3), -2);
  EXPECT_EQ(robust::SaturatingAdd(kMin, -1), kMin);
  EXPECT_EQ(robust::SaturatingAdd(kMin + 1, kMin), kMin);
  EXPECT_EQ(robust::SaturatingSub(5, 8), -3);
  EXPECT_EQ(robust::SaturatingSub(kMax, -1), kMax);
  EXPECT_EQ(robust::SaturatingSub(kMin, 1), kMin);
  EXPECT_EQ(robust::SaturatingSub(kMin, kMax), kMin);
  EXPECT_EQ(robust::SaturatingSub(kMax, kMin), kMax);
  EXPECT_EQ(robust::SaturatingSub(-1, kMax), kMin);
}

TEST(SaturatingTest, MulSaturatesAtBoundary) {
  EXPECT_EQ(robust::SaturatingMul(0, kMax), 0);
  EXPECT_EQ(robust::SaturatingMul(kMax, 0), 0);
  EXPECT_EQ(robust::SaturatingMul(3, 4), 12);
  EXPECT_EQ(robust::SaturatingMul(kMax, 1), kMax);
  EXPECT_EQ(robust::SaturatingMul(1, kMax), kMax);
  EXPECT_EQ(robust::SaturatingMul(kMax / 2, 3), kMax);
  EXPECT_EQ(robust::SaturatingMul(kMax, kMax), kMax);
}

TEST(SaturatingTest, CounterIncSaturatingPinsAtMax) {
  obs::MetricsRegistry registry;
  obs::Counter* ctr = registry.GetCounter("robust.test");
  ctr->IncSaturating(5);
  EXPECT_EQ(registry.Snapshot().counters.at("robust.test"), 5);
  ctr->IncSaturating(kMax - 5);
  EXPECT_EQ(registry.Snapshot().counters.at("robust.test"), kMax);
  // Further increments stay pinned instead of wrapping negative.
  ctr->IncSaturating(kMax);
  ctr->IncSaturating(1);
  EXPECT_EQ(registry.Snapshot().counters.at("robust.test"), kMax);
}

// End to end: an overload-capped operator keeps its registry counter
// bit-equal to the lost_match_upper_bound() accessor while evictions
// multiply the bound upward.
TEST(SaturatingTest, LostMatchBoundCounterTracksAccessor) {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(Duration{1} << 30)  // nothing purges; only the cap bounds
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  obs::MetricsRegistry registry;
  TPStreamOperator::Options options;
  options.low_latency = false;
  options.metrics = &registry;
  options.overload.max_situations_per_buffer = 16;
  TPStreamOperator op(spec.value(), options, nullptr);

  for (const Event& e : testing::FloodWorkload(1, 4000, 77)) op.Push(e);

  ASSERT_GT(op.shed_situations(), 0) << "flood did not reach the cap";
  EXPECT_GT(op.lost_match_upper_bound(), 0);
  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("robust.shed_situations"),
            op.shed_situations());
  EXPECT_EQ(snap.counters.at("robust.lost_match_upper_bound"),
            op.lost_match_upper_bound());
}

// The join core's window bounds (`ts + W`, `te - W`, `te - ts`) and the
// purge horizon (`now - W`) saturate: with WITHIN near INT64_MAX the
// window never binds, so a stream shifted next to either TimePoint limit
// yields the same matches, shifted, as the stream at small timestamps.
// Run under UBSan, any overflow in those bounds is reported.
TEST(SaturatingTest, WindowBoundsNearTimeLimits) {
  Schema schema({Field{"f", ValueType::kBool}, Field{"g", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "f"))
      .Define("B", FieldRef(1, "g"))
      .Relate("A", {Relation::kBefore, Relation::kOverlaps}, "B")
      .Within(kMax - 7)
      .ReturnStart("a_start", "A")
      .ReturnEnd("b_end", "B")
      .ReturnDuration("b_duration", "B")
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  constexpr int kEvents = 600;
  std::mt19937_64 rng(3);
  std::bernoulli_distribution flip(0.1);
  std::vector<std::pair<bool, bool>> flags;
  bool f = false;
  bool g = false;
  for (int i = 0; i < kEvents; ++i) {
    if (flip(rng)) f = !f;
    if (flip(rng)) g = !g;
    flags.emplace_back(f, g);
  }

  // RETURN rows with every time value relative to `base`.
  auto run = [&](TimePoint base, bool low_latency) {
    std::vector<std::vector<int64_t>> rows;
    TPStreamOperator::Options options;
    options.low_latency = low_latency;
    TPStreamOperator op(spec.value(), options, [&](const Event& e) {
      rows.push_back({e.t - base, e.payload[0].AsInt() - base,
                      e.payload[1].is_null() ? -1 : e.payload[1].AsInt() - base,
                      e.payload[2].is_null() ? -1 : e.payload[2].AsInt(),
                      e.payload[3].AsInt()});
    });
    for (int i = 0; i < kEvents; ++i) {
      op.Push(Event({Value(flags[i].first), Value(flags[i].second)},
                    base + i));
    }
    return rows;
  };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (bool low_latency : {true, false}) {
    SCOPED_TRACE(low_latency ? "low-latency" : "baseline");
    const auto reference = run(1, low_latency);
    ASSERT_GT(reference.size(), 10u);
    EXPECT_EQ(run(kMax - kEvents - 8, low_latency), reference);
    EXPECT_EQ(run(kMin + 1, low_latency), reference);
  }
}

}  // namespace
}  // namespace tpstream
