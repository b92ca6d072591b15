#include "matcher/low_latency_matcher.h"

#include <random>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::BruteForceMatches;
using testing::BuildTimeline;
using testing::ConfigKey;
using testing::KeyOf;
using testing::RandomPattern;
using testing::RandomStream;
using testing::Sit;
using testing::Timeline;

struct LlResult {
  std::map<ConfigKey, TimePoint> detections;
  int duplicates = 0;
};

LlResult RunLowLatency(const TemporalPattern& pattern, Duration window,
                       const std::vector<std::vector<Situation>>& streams) {
  LlResult result;
  DetectionAnalysis analysis(
      pattern, std::vector<DurationConstraint>(pattern.num_symbols()));
  CallbackSink sink([&](const Match& m) {
    auto [it, inserted] =
        result.detections.emplace(KeyOf(m), m.detected_at);
    if (!inserted) ++result.duplicates;
  });
  LowLatencyMatcher matcher(pattern, analysis, window, &sink);
  const Timeline tl = BuildTimeline(streams);
  for (TimePoint t : tl.instants) {
    const auto s_it = tl.started.find(t);
    const auto f_it = tl.finished.find(t);
    static const std::vector<SymbolSituation> kNone;
    matcher.Update(s_it == tl.started.end() ? kNone : s_it->second,
                   f_it == tl.finished.end() ? kNone : f_it->second, t);
  }
  return result;
}

// The central correctness property (Section 5.3): the low-latency matcher
// finds exactly the configurations of Definition 13, never emits
// duplicates, and concludes every match no later than the baseline (the
// last end timestamp) and no earlier than situations can be related.
TEST(LowLatencyMatcherTest, AgreesWithBruteForceAndDetectsEarlier) {
  std::mt19937_64 rng(41);
  int early = 0;
  int total = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 3);
    const TemporalPattern pattern = RandomPattern(rng, n);
    // Generous window (see DESIGN.md on low-latency window semantics).
    const Duration window = 400;

    std::vector<std::vector<Situation>> streams(n);
    for (auto& s : streams) s = RandomStream(rng, 300);

    const auto expected = BruteForceMatches(pattern, window, streams);
    const LlResult got = RunLowLatency(pattern, window, streams);

    EXPECT_EQ(got.duplicates, 0) << pattern.ToString();
    EXPECT_EQ(got.detections.size(), expected.size())
        << "trial " << trial << " pattern " << pattern.ToString();
    for (const auto& [key, baseline_te] : expected) {
      auto it = got.detections.find(key);
      ASSERT_NE(it, got.detections.end())
          << pattern.ToString() << " missing config";
      EXPECT_LE(it->second, baseline_te) << pattern.ToString();
      // A match cannot be concluded before every situation has started.
      TimePoint max_ts = kTimeMin;
      for (TimePoint ts : key) max_ts = std::max(max_ts, ts);
      EXPECT_GE(it->second, max_ts) << pattern.ToString();
      if (it->second < baseline_te) ++early;
      ++total;
    }
  }
  // The whole point of Section 5.3: a substantial share of matches must be
  // concluded strictly earlier than the baseline.
  EXPECT_GT(early, total / 10);
}

// The detection time reported by the matcher must equal the analytic
// earliest detection time t_d(P) of Section 5.3.1 for every match.
TEST(LowLatencyMatcherTest, DetectionTimeEqualsAnalyticTd) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 3);
    const TemporalPattern pattern = RandomPattern(rng, n);
    std::vector<std::vector<Situation>> streams(n);
    for (auto& s : streams) s = RandomStream(rng, 250);

    std::map<ConfigKey, std::vector<Situation>> configs;
    std::map<ConfigKey, TimePoint> detections;
    DetectionAnalysis analysis(pattern,
                               std::vector<DurationConstraint>(n));
    CallbackSink sink([&](const Match& m) {
      configs.emplace(KeyOf(m), m.ToOwned().config);
      detections.emplace(KeyOf(m), m.detected_at);
    });
    LowLatencyMatcher matcher(pattern, analysis, /*window=*/1000, &sink);
    const Timeline tl = BuildTimeline(streams);
    for (TimePoint t : tl.instants) {
      const auto s_it = tl.started.find(t);
      const auto f_it = tl.finished.find(t);
      static const std::vector<SymbolSituation> kNone;
      matcher.Update(s_it == tl.started.end() ? kNone : s_it->second,
                     f_it == tl.finished.end() ? kNone : f_it->second, t);
    }
    for (const auto& [key, config] : configs) {
      // Reconstruct the full (finished) configuration for the analysis.
      std::vector<Situation> full = config;
      for (int s = 0; s < n; ++s) {
        if (!full[s].ongoing()) continue;
        for (const Situation& cand : streams[s]) {
          if (cand.ts == full[s].ts) {
            full[s] = cand;
            break;
          }
        }
      }
      EXPECT_EQ(detections[key], EarliestDetection(pattern, full))
          << pattern.ToString();
    }
  }
}

TEST(LowLatencyMatcherTest, PerRelationDetectionTimesMatchTable2) {
  struct Case {
    Relation relation;
    Situation a, b;
    TimePoint expected_td;
  };
  const std::vector<Case> cases = {
      {Relation::kBefore, Sit(1, 4), Sit(8, 15), 8},         // B.ts
      {Relation::kMeets, Sit(1, 8), Sit(8, 15), 8},          // B.ts
      {Relation::kOverlaps, Sit(1, 10), Sit(5, 15), 10},     // A.te
      {Relation::kStarts, Sit(5, 10), Sit(5, 15), 10},       // A.te
      {Relation::kDuring, Sit(6, 10), Sit(5, 15), 10},       // A.te
      {Relation::kStartedBy, Sit(5, 15), Sit(5, 10), 10},    // B.te
      {Relation::kContains, Sit(5, 15), Sit(6, 10), 10},     // B.te
      {Relation::kOverlappedBy, Sit(5, 15), Sit(1, 10), 10}, // B.te
      {Relation::kEquals, Sit(5, 15), Sit(5, 15), 15},       // both ends
      {Relation::kFinishes, Sit(5, 15), Sit(8, 15), 15},     // both ends
      {Relation::kFinishedBy, Sit(8, 15), Sit(5, 15), 15},   // both ends
      {Relation::kAfter, Sit(8, 15), Sit(1, 4), 8},          // A.ts
      {Relation::kMetBy, Sit(8, 15), Sit(1, 8), 8},          // A.ts
  };
  for (const Case& c : cases) {
    TemporalPattern p({"A", "B"});
    ASSERT_TRUE(p.AddRelation(0, c.relation, 1).ok());
    const auto result = RunLowLatency(p, 1000, {{c.a}, {c.b}});
    ASSERT_EQ(result.detections.size(), 1u) << RelationName(c.relation);
    EXPECT_EQ(result.detections.begin()->second, c.expected_td)
        << RelationName(c.relation);
  }
}

TEST(LowLatencyMatcherTest, PrefixGroupDetectsAtLaterStart) {
  // Complete group {overlaps, finishes, contains}: certain as soon as B
  // starts while A is ongoing.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kOverlaps, 1).ok());
  ASSERT_TRUE(p.AddRelation(0, Relation::kFinishes, 1).ok());
  ASSERT_TRUE(p.AddRelation(0, Relation::kContains, 1).ok());

  const auto result = RunLowLatency(p, 1000, {{Sit(2, 20)}, {Sit(6, 11)}});
  ASSERT_EQ(result.detections.size(), 1u);
  EXPECT_EQ(result.detections.begin()->second, 6);  // t_d(G) = B.ts
}

TEST(LowLatencyMatcherTest, FigureFourScenarios) {
  // Pattern: A before B AND A before C AND A before D AND
  //          (D during C OR C finishes D OR C meets D).
  // Note "C finishes D" and "C meets D" with the paper's orientation.
  TemporalPattern p({"A", "B", "C", "D"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 2).ok());
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 3).ok());
  ASSERT_TRUE(p.AddRelation(3, Relation::kDuring, 2).ok());
  ASSERT_TRUE(p.AddRelation(2, Relation::kFinishes, 3).ok());
  ASSERT_TRUE(p.AddRelation(2, Relation::kMeets, 3).ok());

  // Configuration 1 (trigger B.ts): C meets D decided early, B starts last.
  {
    const auto r = RunLowLatency(
        p, 1000, {{Sit(1, 3)}, {Sit(20, 25)}, {Sit(5, 10)}, {Sit(10, 18)}});
    ASSERT_EQ(r.detections.size(), 1u);
    EXPECT_EQ(r.detections.begin()->second, 20);  // B.ts
  }
  // Configuration 2 (trigger D.ts via meets): B and D still ongoing.
  {
    const auto r = RunLowLatency(
        p, 1000, {{Sit(1, 3)}, {Sit(5, 30)}, {Sit(6, 12)}, {Sit(12, 28)}});
    ASSERT_EQ(r.detections.size(), 1u);
    EXPECT_EQ(r.detections.begin()->second, 12);  // D.ts
  }
  // Configuration with D during C: decided at D.te.
  {
    const auto r = RunLowLatency(
        p, 1000, {{Sit(1, 3)}, {Sit(5, 30)}, {Sit(6, 20)}, {Sit(8, 12)}});
    ASSERT_EQ(r.detections.size(), 1u);
    EXPECT_EQ(r.detections.begin()->second, 12);  // D.te
  }
}

TEST(LowLatencyMatcherTest, SimultaneousEndsResolveOnce) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kFinishes, 1).ok());
  // A = [2, 10), B = [5, 10): both end at 10.
  const auto r = RunLowLatency(p, 1000, {{Sit(2, 10)}, {Sit(5, 10)}});
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.duplicates, 0);
  EXPECT_EQ(r.detections.begin()->second, 10);
}

TEST(LowLatencyMatcherTest, EqualsNeverMatchedWhileOngoing) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kEquals, 1).ok());
  // Both start together but end differently: no match may ever fire while
  // their (equal-looking) temporary ends coincide.
  const auto r = RunLowLatency(p, 1000, {{Sit(3, 9)}, {Sit(3, 14)}});
  EXPECT_TRUE(r.detections.empty());

  const auto r2 = RunLowLatency(p, 1000, {{Sit(3, 9)}, {Sit(3, 9)}});
  ASSERT_EQ(r2.detections.size(), 1u);
  EXPECT_EQ(r2.detections.begin()->second, 9);
}

TEST(LowLatencyMatcherTest, DedupSurvivesFingerprintPurgeSweep) {
  // Regression guard for the amortized sweep of the exactly-once
  // fingerprint table: once it holds 1024 entries, entries older than the
  // purge horizon (now - window) are erased. Duplicate suppression for
  // configurations *inside* the window must keep working across sweeps.
  //
  // "A finishes B" ends simultaneously, so every configuration is
  // re-derived by both end triggers and only the fingerprint table keeps
  // the second emission out. 1400 matches with a 50-tick window force the
  // sweep (threshold 1024) while each configuration is still deduped at
  // its own emission instant.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kFinishes, 1).ok());

  const int kPairs = 1400;
  std::vector<std::vector<Situation>> streams(2);
  for (int i = 0; i < kPairs; ++i) {
    const TimePoint base = 1 + static_cast<TimePoint>(i) * 10;
    streams[0].push_back(Sit(base, base + 6));
    streams[1].push_back(Sit(base + 3, base + 6));  // B finishes A's end
  }

  const auto r = RunLowLatency(p, /*window=*/50, streams);
  EXPECT_EQ(r.duplicates, 0);
  ASSERT_EQ(r.detections.size(), static_cast<size_t>(kPairs));
  for (const auto& [key, detected_at] : r.detections) {
    // Each pair concludes exactly at its shared end timestamp.
    EXPECT_EQ(detected_at, key[0] + 6);
  }
}

TEST(LowLatencyMatcherTest, WindowSemanticsForOngoingConfigs) {
  // "A before B" with window 10: B starts within the window, so the match
  // is emitted at B.ts even though B's eventual end exceeds the window.
  // This is the documented low-latency window semantics.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  const auto r = RunLowLatency(p, 10, {{Sit(1, 3)}, {Sit(7, 40)}});
  ASSERT_EQ(r.detections.size(), 1u);
  EXPECT_EQ(r.detections.begin()->second, 7);
}

}  // namespace
}  // namespace tpstream
