#include "derive/deriver.h"

#include <random>

#include <gtest/gtest.h>

#include "expr/expression.h"

namespace tpstream {
namespace {

// Reference implementation of Definition 8 on a boolean trace: the longest
// maximal runs of `true`, closed by the first `false` event, filtered by
// the duration constraint. Events at times 1..trace.size().
std::vector<Situation> ReferenceDerive(const std::vector<bool>& trace,
                                       DurationConstraint tau) {
  std::vector<Situation> out;
  int start = -1;
  for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
    const TimePoint t = i + 1;
    if (trace[i]) {
      if (start < 0) start = static_cast<int>(t);
    } else if (start >= 0) {
      if (tau.Contains(t - start)) out.push_back(Situation({}, start, t));
      start = -1;
    }
  }
  return out;
}

std::vector<bool> RandomTrace(std::mt19937_64& rng, int n) {
  std::vector<bool> trace(n);
  std::bernoulli_distribution flip(0.3);
  bool value = false;
  for (int i = 0; i < n; ++i) {
    if (flip(rng)) value = !value;
    trace[i] = value;
  }
  return trace;
}

SituationDefinition BoolDef(const std::string& name,
                            DurationConstraint tau = {}) {
  return SituationDefinition(name, FieldRef(0, "flag"), {}, tau);
}

TEST(DeriverTest, MatchesAlgebraicReferenceOnRandomTraces) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<bool> trace = RandomTrace(rng, 200);
    Deriver deriver({BoolDef("S")}, /*announce_starts=*/false);

    std::vector<Situation> derived;
    for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
      const auto& update =
          deriver.Process(Event({Value(trace[i])}, i + 1));
      EXPECT_TRUE(update.started.empty());  // baseline mode
      for (const SymbolSituation& ss : update.finished) {
        derived.push_back(ss.situation);
      }
    }
    const std::vector<Situation> expected = ReferenceDerive(trace, {});
    ASSERT_EQ(derived.size(), expected.size());
    for (size_t i = 0; i < derived.size(); ++i) {
      EXPECT_EQ(derived[i].ts, expected[i].ts);
      EXPECT_EQ(derived[i].te, expected[i].te);
    }
  }
}

TEST(DeriverTest, DurationConstraintsFilter) {
  std::mt19937_64 rng(12);
  DurationConstraint tau;
  tau.min = 4;
  tau.max = 9;
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<bool> trace = RandomTrace(rng, 300);
    Deriver deriver({BoolDef("S", tau)}, /*announce_starts=*/false);
    std::vector<Situation> derived;
    for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
      for (const SymbolSituation& ss :
           deriver.Process(Event({Value(trace[i])}, i + 1)).finished) {
        derived.push_back(ss.situation);
      }
    }
    const std::vector<Situation> expected = ReferenceDerive(trace, tau);
    ASSERT_EQ(derived.size(), expected.size());
    for (size_t i = 0; i < derived.size(); ++i) {
      EXPECT_EQ(derived[i].ts, expected[i].ts);
      EXPECT_EQ(derived[i].te, expected[i].te);
      EXPECT_GE(derived[i].duration(), tau.min);
      EXPECT_LE(derived[i].duration(), tau.max);
    }
  }
}

TEST(DeriverTest, AnnouncesStartImmediatelyWithoutConstraints) {
  Deriver deriver({BoolDef("S")}, /*announce_starts=*/true);
  auto& u1 = deriver.Process(Event({Value(true)}, 5));
  ASSERT_EQ(u1.started.size(), 1u);
  EXPECT_EQ(u1.started[0].situation.ts, 5);
  EXPECT_TRUE(u1.started[0].situation.ongoing());
  EXPECT_TRUE(deriver.IsOngoing(0));

  auto& u2 = deriver.Process(Event({Value(false)}, 9));
  ASSERT_EQ(u2.finished.size(), 1u);
  EXPECT_EQ(u2.finished[0].situation.ts, 5);
  EXPECT_EQ(u2.finished[0].situation.te, 9);
  EXPECT_FALSE(deriver.IsOngoing(0));
}

TEST(DeriverTest, MinimumDurationDefersAnnouncement) {
  DurationConstraint tau;
  tau.min = 3;
  Deriver deriver({BoolDef("S", tau)}, /*announce_starts=*/true);
  // Events at 1, 2, 3: guaranteed durations 1, 2, 3 (end is at least t+1).
  EXPECT_TRUE(deriver.Process(Event({Value(true)}, 1)).started.empty());
  EXPECT_TRUE(deriver.Process(Event({Value(true)}, 2)).started.empty());
  auto& u3 = deriver.Process(Event({Value(true)}, 3));
  ASSERT_EQ(u3.started.size(), 1u);
  EXPECT_EQ(u3.started[0].situation.ts, 1);  // original start, not t-bar

  // A run too short to be announced is silently dropped if it also fails
  // the constraint at its end.
  Deriver d2({BoolDef("S", tau)}, /*announce_starts=*/true);
  EXPECT_TRUE(d2.Process(Event({Value(true)}, 1)).started.empty());
  const auto& end = d2.Process(Event({Value(false)}, 2));
  EXPECT_TRUE(end.finished.empty());
  EXPECT_TRUE(end.started.empty());
}

TEST(DeriverTest, MaximumDurationSuppressesAnnouncement) {
  DurationConstraint tau;
  tau.max = 5;
  Deriver deriver({BoolDef("S", tau)}, /*announce_starts=*/true);
  for (TimePoint t = 1; t <= 4; ++t) {
    EXPECT_TRUE(deriver.Process(Event({Value(true)}, t)).started.empty());
  }
  auto& end = deriver.Process(Event({Value(false)}, 5));
  ASSERT_EQ(end.finished.size(), 1u);  // duration 4 <= 5: kept

  // Over-long situations are discarded entirely.
  Deriver d2({BoolDef("S", tau)}, /*announce_starts=*/true);
  for (TimePoint t = 1; t <= 8; ++t) {
    d2.Process(Event({Value(true)}, t));
  }
  EXPECT_TRUE(d2.Process(Event({Value(false)}, 9)).finished.empty());
}

TEST(DeriverTest, AggregatesOverSituationEvents) {
  Schema schema({Field{"flag", ValueType::kBool},
                 Field{"speed", ValueType::kDouble}});
  std::vector<AggregateSpec> aggs = {
      AggregateSpec{AggKind::kAvg, 1, "avg_speed"},
      AggregateSpec{AggKind::kMax, 1, "max_speed"},
      AggregateSpec{AggKind::kCount, -1, "n"},
  };
  SituationDefinition def("S", FieldRef(0, "flag"), aggs, {});
  Deriver deriver({def}, /*announce_starts=*/true);

  deriver.Process(Event({Value(true), Value(10.0)}, 1));
  deriver.Process(Event({Value(true), Value(20.0)}, 2));
  EXPECT_DOUBLE_EQ(deriver.OngoingAggregate(0, 0).ToDouble(), 15.0);
  EXPECT_DOUBLE_EQ(deriver.OngoingAggregate(0, 1).ToDouble(), 20.0);
  EXPECT_EQ(deriver.OngoingAggregate(0, 2).AsInt(), 2);
  EXPECT_TRUE(deriver.OngoingAggregate(0, 3).is_null());

  deriver.Process(Event({Value(true), Value(60.0)}, 3));
  const auto& end = deriver.Process(Event({Value(false), Value(0.0)}, 4));
  ASSERT_EQ(end.finished.size(), 1u);
  const Tuple& payload = end.finished[0].situation.payload;
  EXPECT_DOUBLE_EQ(payload[0].ToDouble(), 30.0);  // avg of 10, 20, 60
  EXPECT_DOUBLE_EQ(payload[1].ToDouble(), 60.0);  // max
  EXPECT_EQ(payload[2].AsInt(), 3);               // count
}

TEST(DeriverTest, MultipleIndependentDefinitions) {
  Schema schema({Field{"x", ValueType::kInt}});
  SituationDefinition high("H", Gt(FieldRef(0, "x"), Literal(int64_t{5})));
  SituationDefinition low("L", Lt(FieldRef(0, "x"), Literal(int64_t{2})));
  Deriver deriver({high, low}, /*announce_starts=*/false);

  // x: 7 7 0 0 7 -> H = [1,3), L = [3,5)
  const int64_t xs[] = {7, 7, 0, 0, 7};
  std::vector<SymbolSituation> finished;
  for (int i = 0; i < 5; ++i) {
    for (const auto& ss :
         deriver.Process(Event({Value(xs[i])}, i + 1)).finished) {
      finished.push_back(ss);
    }
  }
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0].symbol, 0);
  EXPECT_EQ(finished[0].situation.ts, 1);
  EXPECT_EQ(finished[0].situation.te, 3);
  EXPECT_EQ(finished[1].symbol, 1);
  EXPECT_EQ(finished[1].situation.ts, 3);
  EXPECT_EQ(finished[1].situation.te, 5);
}

}  // namespace
}  // namespace tpstream
