// Parameterized property sweeps: broad invariants checked across every
// temporal relation, pattern shape, window size, duration constraint and
// operator mode.
#include <random>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/matcher.h"
#include "query/builder.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::BatchByEnd;
using testing::BruteForceMatches;
using testing::BuildTimeline;
using testing::ConfigKey;
using testing::KeyOf;
using testing::RandomStream;
using testing::Sit;
using testing::Timeline;

// ---------------------------------------------------------------------
// Sweep 1: every temporal relation, both matchers, random streams.
// ---------------------------------------------------------------------

class RelationSweep : public ::testing::TestWithParam<int> {};

TEST_P(RelationSweep, BothMatchersAgreeWithBruteForce) {
  const Relation relation = static_cast<Relation>(GetParam());
  TemporalPattern pattern({"A", "B"});
  ASSERT_TRUE(pattern.AddRelation(0, relation, 1).ok());

  std::mt19937_64 rng(100 + static_cast<int>(relation));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<Situation>> streams(2);
    // Mixed granularities make endpoint-equality relations achievable.
    streams[0] = RandomStream(rng, 400, 2, 12, 1, 6);
    streams[1] = RandomStream(rng, 400, 2, 12, 1, 6);
    const Duration window = 1000;
    const auto expected = BruteForceMatches(pattern, window, streams);

    // Baseline matcher.
    std::map<ConfigKey, TimePoint> baseline;
    CallbackSink sink([&](const Match& m) {
      baseline.emplace(KeyOf(m), m.detected_at);
    });
    Matcher matcher(pattern, window, &sink);
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    EXPECT_EQ(baseline.size(), expected.size()) << RelationName(relation);

    // Low-latency matcher: same matches, detection at analytic t_d.
    std::map<ConfigKey, TimePoint> low_latency;
    DetectionAnalysis analysis(pattern,
                               std::vector<DurationConstraint>(2));
    CallbackSink ll_sink([&](const Match& m) {
      low_latency.emplace(KeyOf(m), m.detected_at);
    });
    LowLatencyMatcher ll(pattern, analysis, window, &ll_sink);
    const Timeline tl = BuildTimeline(streams);
    for (TimePoint t : tl.instants) {
      static const std::vector<SymbolSituation> kNone;
      const auto s_it = tl.started.find(t);
      const auto f_it = tl.finished.find(t);
      ll.Update(s_it == tl.started.end() ? kNone : s_it->second,
                f_it == tl.finished.end() ? kNone : f_it->second, t);
    }
    EXPECT_EQ(low_latency.size(), expected.size()) << RelationName(relation);
    for (const auto& [key, te] : expected) {
      ASSERT_TRUE(low_latency.count(key)) << RelationName(relation);
      EXPECT_LE(low_latency[key], te) << RelationName(relation);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRelations, RelationSweep, ::testing::Range(0, kNumRelations),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name = RelationName(static_cast<Relation>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Sweep 2: alternatives are disjunctive — growing a constraint's relation
// set can only grow the match set (Definition 10).
// ---------------------------------------------------------------------

class AlternativeGrowthSweep : public ::testing::TestWithParam<int> {};

TEST_P(AlternativeGrowthSweep, MoreAlternativesNeverLoseMatches) {
  const int seed = GetParam();
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Situation>> streams(2);
  streams[0] = RandomStream(rng, 400);
  streams[1] = RandomStream(rng, 400);

  // Incrementally add relations in random order; match sets must be
  // monotonically non-decreasing.
  std::vector<Relation> order;
  for (int r = 0; r < kNumRelations; ++r) {
    order.push_back(static_cast<Relation>(r));
  }
  std::shuffle(order.begin(), order.end(), rng);

  size_t previous = 0;
  TemporalPattern pattern({"A", "B"});
  for (Relation r : order) {
    ASSERT_TRUE(pattern.AddRelation(0, r, 1).ok());
    const auto matches = BruteForceMatches(pattern, 1000, streams);

    std::map<ConfigKey, TimePoint> got;
    CallbackSink sink([&](const Match& m) {
      got.emplace(KeyOf(m), m.detected_at);
    });
    Matcher matcher(pattern, 1000, &sink);
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    EXPECT_EQ(got.size(), matches.size());
    EXPECT_GE(matches.size(), previous);
    previous = matches.size();
  }
  // With all 13 relations the constraint is a tautology: every pair
  // within the window matches.
  const auto all = BruteForceMatches(pattern, 1000, streams);
  EXPECT_EQ(all.size(), streams[0].size() * streams[1].size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlternativeGrowthSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Sweep 3: window sizes — purge + window check against brute force.
// ---------------------------------------------------------------------

class WindowSweep : public ::testing::TestWithParam<Duration> {};

TEST_P(WindowSweep, BaselineMatcherRespectsWindow) {
  const Duration window = GetParam();
  std::mt19937_64 rng(7000 + window);
  for (int trial = 0; trial < 10; ++trial) {
    const TemporalPattern pattern = testing::RandomPattern(rng, 3);
    std::vector<std::vector<Situation>> streams(3);
    for (auto& s : streams) s = RandomStream(rng, 500);

    std::map<ConfigKey, TimePoint> got;
    CallbackSink sink([&](const Match& m) {
      got.emplace(KeyOf(m), m.detected_at);
    });
    Matcher matcher(pattern, window, &sink);
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    const auto expected = BruteForceMatches(pattern, window, streams);
    EXPECT_EQ(got.size(), expected.size())
        << "window " << window << " " << pattern.ToString();
    for (const auto& [key, te] : got) {
      // Emitted configurations satisfy the span condition.
      TimePoint min_ts = kTimeMax;
      for (TimePoint ts : key) min_ts = std::min(min_ts, ts);
      EXPECT_LE(te - min_ts, window);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(5, 15, 40, 120, 1000));

// ---------------------------------------------------------------------
// Sweep 4: duration constraints — low-latency and baseline operators see
// identical matches under min/max deferral rules.
// ---------------------------------------------------------------------

struct DurationCase {
  const char* name;
  Duration min_a, max_a;
  Duration min_b, max_b;
};

class DurationSweep : public ::testing::TestWithParam<DurationCase> {};

TEST_P(DurationSweep, LowLatencyAgreesWithBaselineOperator) {
  const DurationCase& param = GetParam();
  Schema schema(
      {Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});

  auto build = [&](bool low_latency) {
    QueryBuilder qb(schema);
    DurationConstraint da;
    da.min = param.min_a;
    da.max = param.max_a;
    DurationConstraint db;
    db.min = param.min_b;
    db.max = param.max_b;
    qb.Define("A", FieldRef(0, "a"), da)
        .Define("B", FieldRef(1, "b"), db)
        .Relate("A", {Relation::kBefore, Relation::kOverlaps,
                      Relation::kDuring, Relation::kContains},
                "B")
        .Within(300)
        .Return("n", "A", AggKind::kCount);
    auto spec = qb.Build();
    EXPECT_TRUE(spec.ok());
    TPStreamOperator::Options options;
    options.low_latency = low_latency;
    return std::make_unique<TPStreamOperator>(spec.value(), options,
                                              nullptr);
  };

  std::mt19937_64 rng(31337);
  for (int trial = 0; trial < 5; ++trial) {
    auto baseline = build(false);
    auto low_latency = build(true);

    std::set<ConfigKey> base_keys;
    std::set<ConfigKey> ll_keys;
    baseline->SetMatchObserver(
        [&](const Match& m) { base_keys.insert(KeyOf(m)); });
    low_latency->SetMatchObserver(
        [&](const Match& m) { ll_keys.insert(KeyOf(m)); });

    bool va = false;
    bool vb = false;
    std::bernoulli_distribution flip(0.15);
    for (TimePoint t = 1; t <= 3000; ++t) {
      if (flip(rng)) va = !va;
      if (flip(rng)) vb = !vb;
      Event e({Value(va), Value(vb)}, t);
      baseline->Push(e);
      low_latency->Push(e);
    }
    // Generous window relative to phase lengths: the match sets must be
    // identical except for configurations still ongoing at stream end.
    for (const ConfigKey& key : base_keys) {
      EXPECT_TRUE(ll_keys.count(key)) << param.name;
    }
    EXPECT_GE(ll_keys.size(), base_keys.size()) << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Constraints, DurationSweep,
    ::testing::Values(
        DurationCase{"unconstrained", 1, kTimeMax, 1, kTimeMax},
        DurationCase{"min_on_a", 5, kTimeMax, 1, kTimeMax},
        DurationCase{"max_on_b", 1, kTimeMax, 1, 12},
        DurationCase{"min_and_max", 3, 20, 2, 15},
        DurationCase{"tight", 6, 8, 6, 8}),
    [](const ::testing::TestParamInfo<DurationCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// Sweep 5: operator modes — every execution strategy yields the same
// match count on the same workload.
// ---------------------------------------------------------------------

struct ModeCase {
  const char* name;
  bool low_latency;
  bool adaptive;
  std::optional<std::vector<int>> fixed_order;
};

class OperatorModeSweep : public ::testing::TestWithParam<ModeCase> {};

TEST_P(OperatorModeSweep, MatchCountIndependentOfStrategy) {
  const ModeCase& mode = GetParam();
  Schema schema({Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool},
                 Field{"c", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0))
      .Define("B", FieldRef(1))
      .Define("C", FieldRef(2))
      .Relate("A", {Relation::kBefore, Relation::kMeets}, "B")
      .Relate("B", {Relation::kOverlaps, Relation::kContains,
                    Relation::kFinishes},
              "C")
      .Within(150)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  auto run = [&](const TPStreamOperator::Options& options) {
    TPStreamOperator op(spec.value(), options, nullptr);
    std::set<ConfigKey> keys;
    op.SetMatchObserver(
        [&](const Match& m) { keys.insert(KeyOf(m)); });
    std::mt19937_64 rng(777);  // identical workload for every mode
    bool va = false, vb = false, vc = false;
    std::bernoulli_distribution flip(0.1);
    for (TimePoint t = 1; t <= 5000; ++t) {
      if (flip(rng)) va = !va;
      if (flip(rng)) vb = !vb;
      if (flip(rng)) vc = !vc;
      op.Push(Event({Value(va), Value(vb), Value(vc)}, t));
    }
    return keys;
  };

  TPStreamOperator::Options reference_options;
  reference_options.low_latency = false;
  reference_options.fixed_order = std::vector<int>{0, 1, 2};
  const std::set<ConfigKey> reference = run(reference_options);

  TPStreamOperator::Options options;
  options.low_latency = mode.low_latency;
  options.adaptive = mode.adaptive;
  options.fixed_order = mode.fixed_order;
  const std::set<ConfigKey> keys = run(options);

  if (mode.low_latency) {
    // Low latency may add matches concluded before stream end cut-offs.
    for (const ConfigKey& key : reference) {
      EXPECT_TRUE(keys.count(key)) << mode.name;
    }
    EXPECT_GE(keys.size(), reference.size()) << mode.name;
  } else {
    EXPECT_EQ(keys, reference) << mode.name;
  }
  EXPECT_GT(keys.size(), 0u) << mode.name;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, OperatorModeSweep,
    ::testing::Values(
        ModeCase{"baseline_fixed", false, false, std::vector<int>{0, 1, 2}},
        ModeCase{"baseline_fixed_rev", false, false,
                 std::vector<int>{2, 1, 0}},
        ModeCase{"baseline_adaptive", false, true, std::nullopt},
        ModeCase{"lowlatency_fixed", true, false, std::vector<int>{1, 0, 2}},
        ModeCase{"lowlatency_adaptive", true, true, std::nullopt}),
    [](const ::testing::TestParamInfo<ModeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tpstream
