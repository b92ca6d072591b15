#include "multi/query_group.h"

#include <gtest/gtest.h>

#include "core/operator.h"
#include "derive/fingerprint.h"
#include "expr/expression.h"
#include "query/builder.h"
#include "query/group_builder.h"

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

// --- Expression fingerprints ---------------------------------------------

TEST(ExprFingerprintTest, StructurallyIdenticalTreesEncodeEqually) {
  const ExprPtr a = Gt(FieldRef(0, "speed"), Literal(70.0));
  const ExprPtr b = Gt(FieldRef(0, "velocity"), Literal(70.0));
  // Field names are diagnostics; position decides semantics.
  EXPECT_EQ(ExprFingerprint(*a), ExprFingerprint(*b));
}

TEST(ExprFingerprintTest, DistinguishesPositionLiteralsAndOperators) {
  const std::string base = ExprFingerprint(*Gt(FieldRef(0), Literal(70.0)));
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(1), Literal(70.0))));
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(0), Literal(71.0))));
  EXPECT_NE(base, ExprFingerprint(*Ge(FieldRef(0), Literal(70.0))));
  // Type-tagged literals: int 70 and double 70.0 evaluate differently
  // under division, so they must not alias.
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(0), Literal(int64_t{70}))));
}

TEST(ExprFingerprintTest, CommutedOperandsEncodeDifferently) {
  // Semantically equal but structurally different: only costs sharing.
  const ExprPtr ab = And(FieldRef(0), FieldRef(1));
  const ExprPtr ba = And(FieldRef(1), FieldRef(0));
  EXPECT_NE(ExprFingerprint(*ab), ExprFingerprint(*ba));
}

TEST(ExprFingerprintTest, StringLiteralsAreLengthPrefixed) {
  // Without length prefixes, "ab" and "a"+"b"-shaped encodings could
  // collide across tree shapes.
  const ExprPtr a = Eq(FieldRef(0), Literal(Value(std::string("x)y"))));
  const ExprPtr b = Eq(FieldRef(0), Literal(Value(std::string("x)z"))));
  EXPECT_NE(ExprFingerprint(*a), ExprFingerprint(*b));
}

// --- Definition fingerprints ---------------------------------------------

TEST(DefinitionFingerprintTest, SymbolAndAggregateNamesExcluded) {
  SituationDefinition a("A", Gt(FieldRef(0), Literal(1.0)),
                        {AggregateSpec{AggKind::kAvg, 0, "avg_x"}},
                        DurationConstraint{});
  SituationDefinition b("B", Gt(FieldRef(0), Literal(1.0)),
                        {AggregateSpec{AggKind::kAvg, 0, "other_name"}},
                        DurationConstraint{});
  EXPECT_EQ(DefinitionFingerprint(a), DefinitionFingerprint(b));
}

TEST(DefinitionFingerprintTest, DistinguishesSemantics) {
  const SituationDefinition base("A", Gt(FieldRef(0), Literal(1.0)),
                                 {AggregateSpec{AggKind::kAvg, 0, "v"}},
                                 DurationConstraint{});
  SituationDefinition other_kind = base;
  other_kind.aggregates[0].kind = AggKind::kMax;
  SituationDefinition other_field = base;
  other_field.aggregates[0].field = 1;
  SituationDefinition other_duration = base;
  other_duration.duration.min = 5;
  SituationDefinition extra_agg = base;
  extra_agg.aggregates.push_back(AggregateSpec{AggKind::kCount, -1, "n"});

  const std::string fp = DefinitionFingerprint(base);
  EXPECT_NE(fp, DefinitionFingerprint(other_kind));
  EXPECT_NE(fp, DefinitionFingerprint(other_field));
  EXPECT_NE(fp, DefinitionFingerprint(other_duration));
  EXPECT_NE(fp, DefinitionFingerprint(extra_agg));
}

// --- QueryGroup ----------------------------------------------------------

TEST(QueryGroupTest, DeduplicatesIdenticalDefinitions) {
  multi::QueryGroup group;
  for (int i = 0; i < 5; ++i) {
    auto id = group.AddQuery(OverlapSpec(), nullptr);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value(), i);
  }
  // Five copies of a two-definition query share two distinct definitions.
  EXPECT_EQ(group.num_distinct_definitions(), 2);
  EXPECT_EQ(group.total_definitions(), 10);
}

TEST(QueryGroupTest, MatchesEqualStandaloneOperator) {
  std::vector<Event> standalone;
  TPStreamOperator op(OverlapSpec(), {},
                      [&](const Event& e) { standalone.push_back(e); });

  multi::QueryGroup group;
  std::vector<Event> grouped;
  ASSERT_TRUE(
      group.AddQuery(OverlapSpec(), [&](const Event& e) {
        grouped.push_back(e);
      }).ok());

  for (TimePoint t = 1; t <= 10; ++t) {
    const Event e({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t);
    op.Push(e);
    group.Push(e);
  }
  ASSERT_EQ(standalone.size(), 1u);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].t, standalone[0].t);
  EXPECT_EQ(grouped[0].payload[0].AsInt(), standalone[0].payload[0].AsInt());
  EXPECT_EQ(group.num_matches(0), op.num_matches());
  EXPECT_EQ(group.num_events(), op.num_events());
}

TEST(QueryGroupTest, RejectsRegistrationAfterSealing) {
  multi::QueryGroup group;
  ASSERT_TRUE(group.AddQuery(OverlapSpec(), nullptr).ok());
  group.Push(Event({Value(false), Value(false)}, 1));
  auto late = group.AddQuery(OverlapSpec(), nullptr);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryGroupTest, RejectsSchemaMismatch) {
  multi::QueryGroup group;
  ASSERT_TRUE(group.AddQuery(OverlapSpec(), nullptr).ok());

  Schema other({Field{"a", ValueType::kBool}, Field{"b", ValueType::kInt}});
  QueryBuilder qb(other);
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", Gt(FieldRef(1, "b"), Literal(int64_t{0})))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());
  auto bad = group.AddQuery(spec.value(), nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryGroupTest, RejectsPartitionedQueries) {
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
  multi::QueryGroup group;
  auto bad = group.AddQuery(spec.value(), nullptr);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryGroupTest, SharedPlanCacheHitsForIdenticalQueries) {
  multi::QueryGroup group;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(group.AddQuery(OverlapSpec(), nullptr).ok());
  }
  group.Seal();
  // Every engine installs an initial plan at construction; queries 1..7
  // reuse query 0's subset-DP result.
  EXPECT_EQ(group.plan_cache_misses(), 1);
  EXPECT_EQ(group.plan_cache_hits(), 7);
}

// The plan memo is keyed by bit-exact EMA statistics, which a drifting
// stream rarely repeats. Over a long stream it stays within its cap,
// keeps counting hits and misses, and keeps returning the computed plan.
TEST(QueryGroupTest, SharedPlanCacheStaysBoundedOnLongStreams) {
  SharedPlanCache cache;
  int64_t computed = 0;
  const size_t kSteps = 5 * SharedPlanCache::kMaxEntries;
  const std::vector<int> kSharedPlan = {2, 1, 0};
  for (size_t i = 0; i < kSteps; ++i) {
    const int first = static_cast<int>(i % 3);
    EXPECT_EQ(cache
                  .GetOrCompute("drift" + std::to_string(i),
                                [&] {
                                  ++computed;
                                  return std::vector<int>{first, 1, 2};
                                })
                  .front(),
              first);
    // A key every query of a group looks up again.
    EXPECT_EQ(cache.GetOrCompute("shared",
                                 [&] {
                                   ++computed;
                                   return kSharedPlan;
                                 }),
              kSharedPlan);
    ASSERT_LE(cache.size(), SharedPlanCache::kMaxEntries);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<int64_t>(2 * kSteps));
  EXPECT_EQ(cache.misses(), computed);
  EXPECT_GT(cache.hits(), static_cast<int64_t>(kSteps / 2));
}

TEST(QueryGroupTest, GroupMetricsAndSharedDeriverNamespace) {
  obs::MetricsRegistry group_metrics;
  obs::MetricsRegistry q0_metrics;
  obs::MetricsRegistry q1_metrics;

  multi::QueryGroup::Options options;
  options.metrics = &group_metrics;
  multi::QueryGroup group(options);

  multi::QueryGroup::QueryOptions q0;
  q0.metrics = &q0_metrics;
  multi::QueryGroup::QueryOptions q1;
  q1.metrics = &q1_metrics;
  ASSERT_TRUE(group.AddQuery(OverlapSpec(), nullptr, q0).ok());
  ASSERT_TRUE(group.AddQuery(OverlapSpec(), nullptr, q1).ok());

  for (TimePoint t = 1; t <= 10; ++t) {
    group.Push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  group.Flush();

  const auto group_snap = group_metrics.Snapshot();
  // Shared derivation is recorded once, in the group registry.
  EXPECT_EQ(group_snap.counters.at("multi.events"), 10);
  EXPECT_GT(group_snap.counters.at("deriver.events"), 0);
  EXPECT_EQ(group_snap.gauges.at("multi.queries"), 2.0);
  EXPECT_EQ(group_snap.gauges.at("multi.distinct_definitions"), 2.0);

  // Per-query namespaces carry the matcher/operator counters and no
  // deriver counters (those would double count under sharing).
  for (const auto* reg : {&q0_metrics, &q1_metrics}) {
    const auto snap = reg->Snapshot();
    EXPECT_EQ(snap.counters.at("operator.events"), 10);
    EXPECT_EQ(snap.counters.at("operator.matches"), 1);
    EXPECT_EQ(snap.counters.count("deriver.events"), 0u);
  }
}

TEST(QueryGroupBuilderTest, ParsesAndRunsTextQueries) {
  Schema schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});
  query::QueryGroupBuilder gb(schema);

  std::vector<Event> outputs;
  auto id = gb.AddQueryText(
      "FROM Stream S DEFINE A AS S.a, B AS S.b "
      "PATTERN A overlaps B WITHIN 100 RETURN count(A.a) AS n_a",
      [&](const Event& e) { outputs.push_back(e); });
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto bad = gb.AddQueryText("DEFINE nonsense", nullptr);
  EXPECT_FALSE(bad.ok());

  auto group = gb.Build();
  ASSERT_NE(group, nullptr);
  for (TimePoint t = 1; t <= 10; ++t) {
    group->Push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 6);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 4);
}

}  // namespace
}  // namespace tpstream
