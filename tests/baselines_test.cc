#include <random>

#include <gtest/gtest.h>

#include "baselines/iseq.h"
#include "baselines/strawman.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::BatchByEnd;
using testing::BruteForceMatches;
using testing::ConfigKey;
using testing::KeyOf;
using testing::RandomPattern;
using testing::RandomStream;
using testing::Sit;

TEST(IseqMatcherTest, AgreesWithBruteForce) {
  std::mt19937_64 rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 3);
    const TemporalPattern pattern = RandomPattern(rng, n);
    const Duration window = 30 + static_cast<Duration>(rng() % 50);
    std::vector<std::vector<Situation>> streams(n);
    for (auto& s : streams) s = RandomStream(rng, 250);

    std::map<ConfigKey, TimePoint> got;
    IseqMatcher matcher(pattern, window, [&](const Match& m) {
      got.emplace(KeyOf(m), m.detected_at);
    });
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    const auto expected = BruteForceMatches(pattern, window, streams);
    EXPECT_EQ(got.size(), expected.size()) << pattern.ToString();
    for (const auto& [key, te] : expected) {
      auto it = got.find(key);
      ASSERT_NE(it, got.end());
      EXPECT_EQ(it->second, te);  // ISEQ detects at the last end timestamp
    }
  }
}

TEST(IseqOperatorTest, DerivesAndMatchesFromPointEvents) {
  // Two boolean streams; pattern A overlaps B.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kOverlaps, 1).ok());
  std::vector<SituationDefinition> defs = {
      SituationDefinition("A", FieldRef(0, "a")),
      SituationDefinition("B", FieldRef(1, "b")),
  };
  std::vector<OwnedMatch> matches;
  IseqOperator op(defs, p, 100,
                  [&](const Match& m) { matches.push_back(m.ToOwned()); });

  // a: true on [2,6), b: true on [4,9).
  for (TimePoint t = 1; t <= 12; ++t) {
    const bool a = t >= 2 && t < 6;
    const bool b = t >= 4 && t < 9;
    op.Push(Event({Value(a), Value(b)}, t));
  }
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].config[0].ts, 2);
  EXPECT_EQ(matches[0].config[0].te, 6);
  EXPECT_EQ(matches[0].config[1].ts, 4);
  EXPECT_EQ(matches[0].config[1].te, 9);
  // ISEQ concludes only when B ends.
  EXPECT_EQ(matches[0].detected_at, 9);
}

// Converts situation streams to a boolean event trace (one bool attribute
// per stream, 1 Hz). The trace starts all-false so the two-phase NFA sees
// the leading boundary event of every situation.
std::vector<Event> ToBooleanTrace(
    const std::vector<std::vector<Situation>>& streams, TimePoint horizon) {
  std::vector<Event> events;
  for (TimePoint t = 1; t <= horizon; ++t) {
    Tuple payload;
    for (const auto& stream : streams) {
      bool active = false;
      for (const Situation& s : stream) {
        if (t >= s.ts && t < s.te) {
          active = true;
          break;
        }
      }
      payload.push_back(Value(active));
    }
    events.emplace_back(std::move(payload), t);
  }
  return events;
}

TEST(TwoPhaseMatcherTest, AgreesWithBruteForceOnDerivedSituations) {
  std::mt19937_64 rng(62);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 2);
    const TemporalPattern pattern = RandomPattern(rng, n);
    const Duration window = 60;
    constexpr TimePoint kHorizon = 200;

    std::vector<std::vector<Situation>> streams(n);
    std::vector<SituationDefinition> defs;
    for (int s = 0; s < n; ++s) {
      // Start at ts >= 2 so the leading !S boundary event exists.
      streams[s] = RandomStream(rng, kHorizon - 1, 2, 12, 2, 10);
      defs.emplace_back(std::string(1, 'A' + s), FieldRef(s));
    }

    std::map<ConfigKey, TimePoint> got;
    int duplicates = 0;
    TwoPhaseMatcher matcher(defs, pattern, window, [&](const Match& m) {
      auto [it, inserted] = got.emplace(KeyOf(m), m.detected_at);
      if (!inserted) ++duplicates;
    });
    for (const Event& e : ToBooleanTrace(streams, kHorizon)) {
      matcher.Push(e);
    }
    const auto expected = BruteForceMatches(pattern, window, streams);
    EXPECT_EQ(duplicates, 0);
    EXPECT_EQ(got.size(), expected.size())
        << "trial " << trial << " " << pattern.ToString();
  }
}

TEST(TwoPhaseMatcherTest, RetainedEventsTrackWindow) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  std::vector<SituationDefinition> defs = {
      SituationDefinition("A", FieldRef(0)),
      SituationDefinition("B", FieldRef(1)),
  };
  TwoPhaseMatcher matcher(defs, p, /*window=*/50, nullptr);
  for (TimePoint t = 1; t <= 500; ++t) {
    matcher.Push(Event({Value(false), Value(false)}, t));
  }
  // Retention is bounded by the window, not the stream length.
  EXPECT_LE(matcher.BufferedCount(), 60u);
}

TEST(SingleRunMatcherTest, EncodesOverlapsAtEventGranularity) {
  // "A overlaps B" as A+ (A and B)+ B+ over two boolean attributes
  // (the encoding sketched in Section 1). Early result: concluded at the
  // first B-only event... with strict contiguity the pattern completes at
  // the first event where only B holds.
  const ExprPtr a = FieldRef(0, "a");
  const ExprPtr b = FieldRef(1, "b");
  cep::CepPattern p;
  // Leading boundary pins the start of the A phase, exactly like the
  // derivation patterns; without it the NFA reports one run per possible
  // A anchor.
  p.steps.push_back(cep::PatternStep{"pre", And(Not(a), Not(b)), false, {}});
  p.steps.push_back(cep::PatternStep{"A", And(a, Not(b)), true, {}});
  p.steps.push_back(cep::PatternStep{"AB", And(a, b), true, {}});
  p.steps.push_back(cep::PatternStep{"B", And(b, Not(a)), false, {}});

  std::vector<cep::CepMatch> matches;
  SingleRunMatcher matcher(
      p, [&](const cep::CepMatch& m) { matches.push_back(m); });
  // a: [1,5), b: [3,8); the trace starts with an all-false event at t=0.
  for (TimePoint t = 0; t <= 9; ++t) {
    const bool av = t >= 1 && t < 5;
    const bool bv = t >= 3 && t < 8;
    matcher.Push(Event({Value(av), Value(bv)}, t));
  }
  ASSERT_EQ(matches.size(), 1u);
  // Early detection: at t=5, the first B-only event, well before B ends.
  EXPECT_EQ(matches[0].detected_at, 5);
}

}  // namespace
}  // namespace tpstream
