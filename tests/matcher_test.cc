#include "matcher/matcher.h"

#include <map>
#include <random>
#include <utility>

#include <gtest/gtest.h>

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

// Runs the baseline matcher over the streams and collects the emitted
// configurations with their detection times.
std::map<ConfigKey, TimePoint> RunMatcher(
    const TemporalPattern& pattern, Duration window,
    const std::vector<std::vector<Situation>>& streams,
    int* duplicates = nullptr) {
  std::map<ConfigKey, TimePoint> out;
  CallbackSink sink([&](const Match& m) {
    auto [it, inserted] = out.emplace(KeyOf(m), m.detected_at);
    if (!inserted && duplicates != nullptr) ++*duplicates;
  });
  Matcher matcher(pattern, window, &sink);
  for (const auto& [te, batch] : BatchByEnd(streams)) {
    matcher.Update(batch, te);
  }
  return out;
}

TEST(MatcherTest, SimpleBeforePattern) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  std::vector<OwnedMatch> matches;
  CallbackSink sink([&](const Match& m) { matches.push_back(m.ToOwned()); });
  Matcher matcher(p, 100, &sink);

  matcher.Update({{0, Sit(1, 5)}}, 5);
  EXPECT_TRUE(matches.empty());
  matcher.Update({{1, Sit(7, 12)}}, 12);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].config[0].ts, 1);
  EXPECT_EQ(matches[0].config[1].ts, 7);
  EXPECT_EQ(matches[0].detected_at, 12);
}

// Matches are views into the matcher's buffers, which are purged and
// recycled as the stream advances; owned copies taken in the callback
// must still describe the emitted configurations after many later
// updates. Situations carry distinct payloads and go in through the
// move path, so recycled buffer slots really change content.
TEST(MatcherTest, OwnedCopiesSurviveLaterUpdates) {
  std::mt19937_64 rng(35);
  for (int trial = 0; trial < 20; ++trial) {
    const TemporalPattern pattern = RandomPattern(rng, 3);
    const Duration window = 40;
    std::vector<std::vector<Situation>> streams(3);
    std::map<std::pair<int, TimePoint>, Situation> by_start;
    for (int sym = 0; sym < 3; ++sym) {
      streams[sym] = RandomStream(rng, 600);
      for (Situation& s : streams[sym]) {
        s.payload = {Value(static_cast<int64_t>(s.ts * 10 + sym)),
                     Value(static_cast<double>(s.te))};
        by_start[{sym, s.ts}] = s;
      }
    }

    std::vector<OwnedMatch> kept;
    CallbackSink sink([&](const Match& m) { kept.push_back(m.ToOwned()); });
    Matcher matcher(pattern, window, &sink);
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      std::vector<SymbolSituation> moved = batch;
      matcher.Consume(moved, te);
    }

    const auto expected = BruteForceMatches(pattern, window, streams);
    ASSERT_EQ(kept.size(), expected.size()) << pattern.ToString();
    for (const OwnedMatch& m : kept) {
      const auto it = expected.find(KeyOf(m.config));
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(m.detected_at, it->second);
      for (int sym = 0; sym < 3; ++sym) {
        const Situation& want = by_start.at({sym, m.config[sym].ts});
        EXPECT_EQ(m.config[sym].te, want.te);
        EXPECT_EQ(m.config[sym].payload, want.payload);
      }
    }
  }
}

TEST(MatcherTest, WindowExcludesWideConfigurations) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  std::vector<OwnedMatch> matches;
  CallbackSink sink([&](const Match& m) { matches.push_back(m.ToOwned()); });
  Matcher matcher(p, 10, &sink);

  matcher.Update({{0, Sit(1, 3)}}, 3);
  matcher.Update({{1, Sit(20, 25)}}, 25);  // span 24 > 10
  EXPECT_TRUE(matches.empty());

  matcher.Update({{0, Sit(26, 28)}}, 28);
  matcher.Update({{1, Sit(30, 36)}}, 36);  // span 10 <= 10
  ASSERT_EQ(matches.size(), 1u);
}

TEST(MatcherTest, MatchesBruteForceOnRandomWorkloads) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 3);  // 2..4 streams
    const TemporalPattern pattern = RandomPattern(rng, n);
    const Duration window = 20 + static_cast<Duration>(rng() % 60);

    std::vector<std::vector<Situation>> streams(n);
    for (auto& s : streams) s = RandomStream(rng, /*horizon=*/300);

    int duplicates = 0;
    const auto got = RunMatcher(pattern, window, streams, &duplicates);
    const auto expected = BruteForceMatches(pattern, window, streams);

    EXPECT_EQ(duplicates, 0) << pattern.ToString();
    EXPECT_EQ(got.size(), expected.size())
        << "trial " << trial << " pattern " << pattern.ToString();
    for (const auto& [key, te] : expected) {
      auto it = got.find(key);
      ASSERT_NE(it, got.end()) << pattern.ToString();
      // Baseline detection happens at the last end timestamp.
      EXPECT_EQ(it->second, te);
    }
  }
}

TEST(MatcherTest, EvaluationOrderDoesNotChangeResults) {
  std::mt19937_64 rng(32);
  const TemporalPattern pattern = RandomPattern(rng, 3);
  std::vector<std::vector<Situation>> streams(3);
  for (auto& s : streams) s = RandomStream(rng, 400);

  const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}};
  std::vector<std::map<ConfigKey, TimePoint>> results;
  for (const auto& order : orders) {
    std::map<ConfigKey, TimePoint> out;
    CallbackSink sink([&](const Match& m) { out.emplace(KeyOf(m), 0); });
    Matcher matcher(pattern, 50, &sink);
    matcher.SetEvaluationOrder(order);
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    results.push_back(std::move(out));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]);
  }
}

TEST(MatcherTest, MidStreamOrderMigrationIsSeamless) {
  std::mt19937_64 rng(33);
  const TemporalPattern pattern = RandomPattern(rng, 3);
  std::vector<std::vector<Situation>> streams(3);
  for (auto& s : streams) s = RandomStream(rng, 400);

  std::map<ConfigKey, TimePoint> migrated;
  CallbackSink sink([&](const Match& m) {
    migrated.emplace(KeyOf(m), m.detected_at);
  });
  Matcher matcher(pattern, 60, &sink);
  int updates = 0;
  for (const auto& [te, batch] : BatchByEnd(streams)) {
    if (++updates % 7 == 0) {
      // Rotate the evaluation order mid-stream; the matcher keeps no
      // intermediate state, so results must be identical.
      std::vector<int> order = matcher.CurrentOrder();
      std::rotate(order.begin(), order.begin() + 1, order.end());
      matcher.SetEvaluationOrder(order);
    }
    matcher.Update(batch, te);
  }
  const auto expected = BruteForceMatches(pattern, 60, streams);
  EXPECT_EQ(migrated.size(), expected.size());
}

TEST(MatcherTest, NaiveScanAblationProducesIdenticalMatches) {
  std::mt19937_64 rng(34);
  for (int trial = 0; trial < 20; ++trial) {
    const TemporalPattern pattern = RandomPattern(rng, 3);
    std::vector<std::vector<Situation>> streams(3);
    for (auto& s : streams) s = RandomStream(rng, 300);

    std::map<ConfigKey, TimePoint> fast;
    std::map<ConfigKey, TimePoint> naive;
    for (const bool use_naive : {false, true}) {
      auto& out = use_naive ? naive : fast;
      CallbackSink sink([&](const Match& m) {
        out.emplace(KeyOf(m), m.detected_at);
      });
      Matcher matcher(pattern, 80, &sink);
      matcher.SetNaiveScan(use_naive);
      for (const auto& [te, batch] : BatchByEnd(streams)) {
        matcher.Update(batch, te);
      }
    }
    EXPECT_EQ(fast, naive) << pattern.ToString();
  }
}

TEST(MatcherTest, SelectivityStatsConvergeToObservations) {
  // before-pattern where A situations precede most B situations: the
  // selectivity EMA should move from the Table 3 prior toward the
  // observed value.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  CallbackSink sink([](const Match&) {});
  Matcher matcher(p, 1000, &sink, /*stats_alpha=*/0.5);

  TimePoint t = 0;
  for (int i = 0; i < 50; ++i) {
    matcher.Update({{0, Sit(t + 1, t + 3)}}, t + 3);
    matcher.Update({{1, Sit(t + 5, t + 8)}}, t + 8);
    t += 10;
  }
  // Most buffered A situations are before each new B: selectivity near 1,
  // clearly above the 0.445 prior.
  EXPECT_GT(matcher.stats().selectivity_ema(0), 0.6);
  EXPECT_GT(matcher.stats().buffer_ema(0), 1.0);
}

}  // namespace
}  // namespace tpstream
