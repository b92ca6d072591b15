// Run-at-a-time match emission: the join core hands the last join step's
// candidates to the sink as MatchRuns, clipped to the window.
//
// Matcher level: the runs are pinned to the brute-force oracle for every
// shape a run takes — window clips (situations longer than the window
// included), ongoing bound prefixes, exactly-once sub-runs, runs of one
// and runs across the situation ring's wrap point — and the tests assert
// that each shape actually occurred.
//
// Engine level: MatchEngine projects the bound symbols' RETURN items
// once per run and overwrites only the varying symbol's items per match;
// its RETURN stream must equal, element by element and in order, a
// per-match projection of the observer's views.
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/match_engine.h"
#include "derive/deriver.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/matcher.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace tpstream {
namespace {

using testing::BatchByEnd;
using testing::BruteForceMatches;
using testing::BuildTimeline;
using testing::ConfigKey;
using testing::KeyOf;
using testing::RandomPattern;
using testing::RandomStream;
using testing::Timeline;

// Records every match of every run, plus how often each run shape
// occurred.
class RecordingSink final : public MatchSink {
 public:
  void OnRun(const MatchRun& run) override {
    ++runs;
    if (run.buffer == nullptr) ++runs_of_one;
    if (run.size() > 1) ++multi_runs;
    for (size_t i = 0; i < run.working_set.size(); ++i) {
      if (static_cast<int>(i) != run.symbol &&
          run.working_set[i]->ongoing()) {
        ++ongoing_prefix_runs;
        break;
      }
    }
    // Logical buffer order is ascending in time; a run whose candidates
    // step back in memory crossed the ring's wrap point.
    const Situation* previous = nullptr;
    bool wrapped = false;
    run.ForEach([&](const Match& m) {
      if (run.symbol >= 0) {
        const Situation* current = &m[run.symbol];
        if (previous != nullptr) {
          if (current < previous) wrapped = true;
          EXPECT_LT(previous->ts, current->ts);
        }
        previous = current;
      }
      if (!detections.emplace(KeyOf(m), m.detected_at).second) {
        ++duplicates;
      }
    });
    if (wrapped) ++wrapped_runs;
  }

  std::map<ConfigKey, TimePoint> detections;
  int duplicates = 0;
  int runs = 0;
  int runs_of_one = 0;
  int multi_runs = 0;
  int ongoing_prefix_runs = 0;
  int wrapped_runs = 0;
};

// The situations of `streams` a configuration key names (start
// timestamps are unique per stream).
std::vector<Situation> ConfigOf(
    const ConfigKey& key, const std::vector<std::vector<Situation>>& streams) {
  std::vector<Situation> config;
  for (size_t s = 0; s < key.size(); ++s) {
    for (const Situation& sit : streams[s]) {
      if (sit.ts == key[s]) config.push_back(sit);
    }
  }
  return config;
}

// Every configuration the oracle finds was emitted exactly once, and
// nothing else was — the baseline window semantics.
void ExpectEqualsOracle(const TemporalPattern& pattern, Duration window,
                        const std::vector<std::vector<Situation>>& streams,
                        const std::map<ConfigKey, TimePoint>& got,
                        int duplicates) {
  const auto expected = BruteForceMatches(pattern, window, streams);
  EXPECT_EQ(duplicates, 0) << pattern.ToString();
  EXPECT_EQ(got.size(), expected.size()) << pattern.ToString();
  for (const auto& [key, te] : expected) {
    EXPECT_TRUE(got.count(key)) << pattern.ToString();
  }
}

// Low-latency window semantics (docs/architecture.md): a configuration
// with members still ongoing at detection is checked as
// `detected_at - min(ts) <= W`, so beside every oracle configuration the
// matcher may emit matching configurations whose final span exceeds W —
// exactly those within the window at their detection time.
void ExpectLowLatencyAgreesWithOracle(
    const TemporalPattern& pattern, Duration window,
    const std::vector<std::vector<Situation>>& streams,
    const std::map<ConfigKey, TimePoint>& got, int duplicates) {
  const auto expected = BruteForceMatches(pattern, window, streams);
  EXPECT_EQ(duplicates, 0) << pattern.ToString();
  for (const auto& [key, te] : expected) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << pattern.ToString();
    EXPECT_LE(it->second, te);
  }
  for (const auto& [key, detected_at] : got) {
    if (expected.count(key)) continue;
    const std::vector<Situation> config = ConfigOf(key, streams);
    ASSERT_EQ(config.size(), key.size()) << pattern.ToString();
    EXPECT_TRUE(pattern.Matches(config)) << pattern.ToString();
    TimePoint min_ts = kTimeMax;
    for (const Situation& s : config) min_ts = std::min(min_ts, s.ts);
    EXPECT_LE(detected_at - min_ts, window) << pattern.ToString();
  }
}

void RunLowLatency(const TemporalPattern& pattern, Duration window,
                   const std::vector<std::vector<Situation>>& streams,
                   MatchSink* sink, obs::MetricsRegistry* registry) {
  DetectionAnalysis analysis(
      pattern, std::vector<DurationConstraint>(pattern.num_symbols()));
  LowLatencyMatcher matcher(pattern, analysis, window, sink);
  matcher.EnableMetrics(registry);
  const Timeline tl = BuildTimeline(streams);
  static const std::vector<SymbolSituation> kNone;
  for (TimePoint t : tl.instants) {
    const auto s_it = tl.started.find(t);
    const auto f_it = tl.finished.find(t);
    matcher.Update(s_it == tl.started.end() ? kNone : s_it->second,
                   f_it == tl.finished.end() ? kNone : f_it->second, t);
  }
}

int64_t Counter(const obs::MetricsRegistry& registry, const char* name) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Random patterns over streams whose durations straddle the window:
// candidate ranges get clipped, prefixes get dropped whole.
TEST(RunEmissionTest, RunsAgreeWithBruteForce) {
  std::mt19937_64 rng(1401);
  RecordingSink one_batch_total;
  RecordingSink per_end_total;
  RecordingSink low_latency_total;
  obs::MetricsRegistry registry;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + trial % 3;
    const TemporalPattern pattern = RandomPattern(rng, n);
    const Duration window = trial % 2 == 0 ? 40 : 150;
    std::vector<std::vector<Situation>> streams(n);
    for (auto& s : streams) s = RandomStream(rng, 1000, 2, 60, 1, 12);
    SCOPED_TRACE("trial " + std::to_string(trial) + " " +
                 pattern.ToString() + " W=" + std::to_string(window));

    // Baseline matcher, every situation in one update: the buffers hold
    // situations far older than the window, so the clip cuts runs.
    {
      RecordingSink sink;
      Matcher matcher(pattern, window, &sink);
      matcher.EnableMetrics(&registry);
      std::vector<SymbolSituation> all;
      for (const auto& [te, batch] : BatchByEnd(streams)) {
        all.insert(all.end(), batch.begin(), batch.end());
      }
      matcher.Update(all, all.empty() ? 0 : all.back().situation.te);
      ExpectEqualsOracle(pattern, window, streams, sink.detections,
                         sink.duplicates);
      one_batch_total.multi_runs += sink.multi_runs;
    }
    // Baseline matcher, one update per end timestamp.
    {
      RecordingSink sink;
      Matcher matcher(pattern, window, &sink);
      for (const auto& [te, batch] : BatchByEnd(streams)) {
        matcher.Update(batch, te);
      }
      ExpectEqualsOracle(pattern, window, streams, sink.detections,
                         sink.duplicates);
      per_end_total.multi_runs += sink.multi_runs;
      per_end_total.wrapped_runs += sink.wrapped_runs;
    }
    // Low-latency matcher on the start/end timeline.
    {
      RecordingSink sink;
      RunLowLatency(pattern, window, streams, &sink, nullptr);
      ExpectLowLatencyAgreesWithOracle(pattern, window, streams,
                                       sink.detections, sink.duplicates);
      low_latency_total.multi_runs += sink.multi_runs;
      low_latency_total.runs_of_one += sink.runs_of_one;
      low_latency_total.ongoing_prefix_runs += sink.ongoing_prefix_runs;
      low_latency_total.wrapped_runs += sink.wrapped_runs;
    }
  }
  // Every run shape occurred.
  EXPECT_GT(one_batch_total.multi_runs, 0);
  EXPECT_GT(per_end_total.multi_runs, 0);
  EXPECT_GT(per_end_total.wrapped_runs, 0);
  EXPECT_GT(low_latency_total.multi_runs, 0);
  EXPECT_GT(low_latency_total.runs_of_one, 0);
  EXPECT_GT(low_latency_total.ongoing_prefix_runs, 0);
  EXPECT_GT(low_latency_total.wrapped_runs, 0);
  // The window removed candidates the constraints admitted.
  EXPECT_GT(Counter(registry, "matcher.window_rejects"), 0);
}

// Simultaneous ends (equals / finishes) need the exactly-once step: the
// low-latency matcher forwards the first-time matches of a run as
// sub-runs.
TEST(RunEmissionTest, DedupSubRunsAreExactlyOnce) {
  std::mt19937_64 rng(1402);
  const std::vector<std::vector<std::pair<int, std::pair<Relation, int>>>>
      shapes = {
          {{0, {Relation::kEquals, 1}}},
          {{0, {Relation::kFinishes, 1}}},
          {{0, {Relation::kOverlaps, 1}}, {2, {Relation::kFinishes, 1}}},
          {{0, {Relation::kBefore, 1}}, {2, {Relation::kFinishedBy, 1}}},
      };
  obs::MetricsRegistry registry;
  for (const auto& shape : shapes) {
    const int n = shape.size() == 1 ? 2 : 3;
    std::vector<std::string> names = {"A", "B", "C"};
    names.resize(n);
    TemporalPattern pattern(names);
    for (const auto& [a, rel] : shape) {
      ASSERT_TRUE(pattern.AddRelation(a, rel.first, rel.second).ok());
    }
    DetectionAnalysis analysis(pattern, std::vector<DurationConstraint>(n));
    ASSERT_TRUE(analysis.needs_dedup()) << pattern.ToString();
    for (int trial = 0; trial < 10; ++trial) {
      // Coarse granularity makes equal endpoints common.
      std::vector<std::vector<Situation>> streams(n);
      for (auto& s : streams) s = RandomStream(rng, 800, 1, 6, 1, 3);
      RecordingSink sink;
      RunLowLatency(pattern, 30, streams, &sink, &registry);
      ExpectLowLatencyAgreesWithOracle(pattern, 30, streams, sink.detections,
                                       sink.duplicates);
    }
  }
  EXPECT_GT(Counter(registry, "matcher.dedup_hits"), 0);
}

// A per-match RETURN projection of an observed Match, written the
// straightforward way: every item from the match's own situations, the
// freshest aggregate for situations still being derived.
Event ReferenceProjection(const QuerySpec& spec, const Deriver& deriver,
                          const Match& match) {
  Event e;
  e.t = match.detected_at;
  for (const ReturnItem& item : spec.returns) {
    const Situation& s = match[item.symbol];
    switch (item.source) {
      case ReturnItem::Source::kStartTime:
        e.payload.push_back(Value(static_cast<int64_t>(s.ts)));
        break;
      case ReturnItem::Source::kEndTime:
        e.payload.push_back(s.ongoing() ? Value::Null()
                                        : Value(static_cast<int64_t>(s.te)));
        break;
      case ReturnItem::Source::kDuration:
        e.payload.push_back(s.ongoing() ? Value::Null()
                                        : Value(static_cast<int64_t>(
                                              s.te - s.ts)));
        break;
      case ReturnItem::Source::kAggregate:
        if (s.ongoing() && deriver.IsOngoing(item.symbol)) {
          e.payload.push_back(
              deriver.OngoingAggregate(item.symbol, item.agg_index));
        } else {
          e.payload.push_back(s.payload.at(item.agg_index));
        }
        break;
    }
  }
  return e;
}

std::string Render(const Event& e) {
  std::string out = std::to_string(e.t);
  for (const Value& v : e.payload) {
    out += "|" + std::to_string(static_cast<int>(v.type())) + ":" +
           v.ToString();
  }
  return out;
}

struct EngineResult {
  std::vector<std::string> returned;   // the engine's RETURN stream
  std::vector<std::string> reference;  // per-match projection, in order
  std::map<ConfigKey, TimePoint> detections;
  int duplicates = 0;
  int ongoing_matches = 0;
  std::vector<std::vector<Situation>> streams;  // finished, for the oracle
};

EngineResult RunEngine(const QuerySpec& spec, bool low_latency,
                       const std::vector<Event>& events) {
  EngineResult r;
  const size_t n = spec.definitions.size();
  r.streams.resize(n);
  Deriver deriver(spec.definitions, low_latency);
  Deriver recorder(spec.definitions, /*announce_starts=*/false);
  MatchEngine::Options options;
  options.low_latency = low_latency;
  options.adaptive = true;
  options.reopt_interval = 16;
  std::vector<int> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = static_cast<int>(i);
  MatchEngine engine(&spec, &deriver, slots, options, [&](const Event& e) {
    r.returned.push_back(Render(e));
  });
  engine.SetMatchObserver([&](const Match& m) {
    r.reference.push_back(Render(ReferenceProjection(spec, deriver, m)));
    if (!r.detections.emplace(KeyOf(m), m.detected_at).second) {
      ++r.duplicates;
    }
    for (const Situation* s : m.situations) {
      if (s->ongoing()) {
        ++r.ongoing_matches;
        break;
      }
    }
  });
  for (const Event& e : events) {
    engine.NoteEvents(1);
    Deriver::Update& update = deriver.Process(e);
    if (!update.empty()) engine.Consume(update, e.t);
    for (const SymbolSituation& ss : recorder.Process(e).finished) {
      r.streams[ss.symbol].push_back(ss.situation);
    }
  }
  EXPECT_EQ(engine.num_matches(), static_cast<int64_t>(r.returned.size()));
  return r;
}

// Synthetic boolean streams, closed by a few all-false events so every
// situation finishes.
std::vector<Event> SyntheticEvents(int streams, Duration max_duration,
                                   Duration max_gap, int count) {
  SyntheticGenerator gen({.num_streams = streams,
                          .min_duration = 1,
                          .max_duration = max_duration,
                          .min_gap = 1,
                          .max_gap = max_gap,
                          .seed = 77});
  std::vector<Event> events(count);
  for (Event& e : events) gen.Next(&e);
  for (int i = 1; i <= 3; ++i) {
    events.push_back(
        Event(Tuple(streams, Value(false)), events.back().t + 1));
  }
  return events;
}

TEST(RunEmissionTest, EngineReturnStreamEqualsPerMatchProjection) {
  // In the two-symbol case, durations up to 200 straddle the window of
  // 150; the simultaneous-end cases use coarse timing so that equal end
  // timestamps are common.
  const struct {
    const char* pattern;
    int streams;
    Duration max_duration;
    Duration max_gap;
    Duration window;
    int events;  // the brute-force oracle is cubic in the stream length
  } kCases[] = {
      // Three symbols: RETURN reads start/end/duration/aggregates of the
      // varying and the bound symbols; B overlaps C concludes while C is
      // ongoing (ongoing prefix, ongoing aggregates).
      {"A before B AND B overlaps C", 3, 60, 10, 100, 4000},
      // Simultaneous ends: the exactly-once step splits runs.
      {"A overlaps B AND C finishes B", 3, 6, 3, 30, 600},
      // Two symbols, concluded while one is ongoing: runs of one.
      {"A overlaps B", 2, 200, 20, 150, 10000},
      {"A equals B", 2, 6, 3, 30, 3000},
  };
  int ongoing_matches = 0;
  for (const auto& c : kCases) {
    for (bool low_latency : {true, false}) {
      std::string text = "FROM S DEFINE A AS s0, B AS s1";
      if (c.streams == 3) text += ", C AS s2";
      text += std::string(" PATTERN ") + c.pattern + " WITHIN " +
              std::to_string(c.window) + " RETURN ";
      const char* symbols[] = {"A", "B", "C"};
      for (int s = 0; s < c.streams; ++s) {
        const std::string sym = symbols[s];
        if (s > 0) text += ", ";
        text += "start(" + sym + "), end(" + sym + "), duration(" + sym +
                "), count(" + sym + ".s" + std::to_string(s) + ") AS n" +
                sym;
      }
      SCOPED_TRACE(text + (low_latency ? " [low-latency]" : " [baseline]"));
      const std::vector<Event> events = SyntheticEvents(
          c.streams, c.max_duration, c.max_gap, c.events);
      SyntheticGenerator schema_source({.num_streams = c.streams});
      auto spec = query::ParseQuery(text, schema_source.schema());
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();

      const EngineResult r = RunEngine(spec.value(), low_latency, events);
      ASSERT_GT(r.returned.size(), 0u);
      ASSERT_EQ(r.returned.size(), r.reference.size());
      for (size_t i = 0; i < r.returned.size(); ++i) {
        ASSERT_EQ(r.returned[i], r.reference[i]) << "match " << i;
      }
      if (low_latency) {
        ExpectLowLatencyAgreesWithOracle(spec.value().pattern, c.window, r.streams,
                                         r.detections, r.duplicates);
        ongoing_matches += r.ongoing_matches;
      } else {
        ExpectEqualsOracle(spec.value().pattern, c.window, r.streams,
                           r.detections, r.duplicates);
      }
    }
  }
  // Matches concluded with a member still ongoing (te = now).
  EXPECT_GT(ongoing_matches, 0);
}

}  // namespace
}  // namespace tpstream
