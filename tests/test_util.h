#ifndef TPSTREAM_TESTS_TEST_UTIL_H_
#define TPSTREAM_TESTS_TEST_UTIL_H_

#include <functional>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "algebra/pattern.h"
#include "common/situation.h"
#include "matcher/match.h"

namespace tpstream {
namespace testing {

inline Situation Sit(TimePoint ts, TimePoint te) {
  return Situation({}, ts, te);
}

/// A configuration key: per-symbol start timestamps (unique per stream).
using ConfigKey = std::vector<TimePoint>;

inline ConfigKey KeyOf(const std::vector<Situation>& config) {
  ConfigKey key;
  key.reserve(config.size());
  for (const Situation& s : config) key.push_back(s.ts);
  return key;
}

inline ConfigKey KeyOf(const Match& match) {
  ConfigKey key;
  key.reserve(match.size());
  for (const Situation* s : match.situations) key.push_back(s->ts);
  return key;
}

/// Reference implementation of Definition 13: all configurations from the
/// cross product of the (finished) situation streams that match the
/// pattern and the window. Returns key -> max end timestamp (the baseline
/// detection time).
inline std::map<ConfigKey, TimePoint> BruteForceMatches(
    const TemporalPattern& pattern, Duration window,
    const std::vector<std::vector<Situation>>& streams) {
  std::map<ConfigKey, TimePoint> out;
  std::vector<Situation> config(streams.size());
  std::vector<size_t> idx(streams.size(), 0);

  // Recursive cross product.
  std::function<void(size_t)> rec = [&](size_t sym) {
    if (sym == streams.size()) {
      TimePoint min_ts = kTimeMax;
      TimePoint max_te = kTimeMin;
      for (const Situation& s : config) {
        min_ts = std::min(min_ts, s.ts);
        max_te = std::max(max_te, s.te);
      }
      if (max_te - min_ts > window) return;
      if (!pattern.Matches(config)) return;
      out.emplace(KeyOf(config), max_te);
      return;
    }
    for (const Situation& s : streams[sym]) {
      config[sym] = s;
      rec(sym + 1);
    }
  };
  rec(0);
  return out;
}

/// Random connected pattern over `n` symbols: a random spanning tree plus
/// optional extra edges, each constraint holding 1..4 random relations.
inline TemporalPattern RandomPattern(std::mt19937_64& rng, int n,
                                     double extra_edge_prob = 0.3) {
  std::vector<std::string> names;
  names.reserve(n);
  for (int i = 0; i < n; ++i) names.push_back(std::string(1, 'A' + i));
  TemporalPattern pattern(names);

  std::uniform_int_distribution<int> rel_dist(0, kNumRelations - 1);
  std::uniform_int_distribution<int> count_dist(1, 4);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  auto add_constraint = [&](int a, int b) {
    const int k = count_dist(rng);
    for (int i = 0; i < k; ++i) {
      (void)pattern.AddRelation(a, static_cast<Relation>(rel_dist(rng)), b);
    }
  };

  for (int v = 1; v < n; ++v) {
    std::uniform_int_distribution<int> parent(0, v - 1);
    add_constraint(parent(rng), v);
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (pattern.ConstraintIndex(a, b) < 0 && uni(rng) < extra_edge_prob) {
        add_constraint(a, b);
      }
    }
  }
  return pattern;
}

/// Random disjoint situation stream: durations U[min_d,max_d], gaps
/// U[min_g,max_g], until `horizon`.
inline std::vector<Situation> RandomStream(std::mt19937_64& rng,
                                           TimePoint horizon,
                                           Duration min_d = 2,
                                           Duration max_d = 20,
                                           Duration min_g = 1,
                                           Duration max_g = 15) {
  std::vector<Situation> out;
  std::uniform_int_distribution<Duration> dur(min_d, max_d);
  std::uniform_int_distribution<Duration> gap(min_g, max_g);
  TimePoint t = gap(rng);
  while (true) {
    const TimePoint ts = t;
    const TimePoint te = ts + dur(rng);
    if (te > horizon) break;
    out.push_back(Sit(ts, te));
    t = te + gap(rng);
  }
  return out;
}

/// Interleaves finished situations of several streams into per-timestamp
/// batches ordered by end timestamp, the input format of Matcher::Update.
inline std::map<TimePoint, std::vector<SymbolSituation>> BatchByEnd(
    const std::vector<std::vector<Situation>>& streams) {
  std::map<TimePoint, std::vector<SymbolSituation>> batches;
  for (int sym = 0; sym < static_cast<int>(streams.size()); ++sym) {
    for (const Situation& s : streams[sym]) {
      batches[s.te].push_back(SymbolSituation{sym, s});
    }
  }
  return batches;
}

/// Start/end event timeline for the low-latency matcher: at ts the
/// situation is announced, at te it finishes.
struct Timeline {
  std::map<TimePoint, std::vector<SymbolSituation>> started;
  std::map<TimePoint, std::vector<SymbolSituation>> finished;
  std::set<TimePoint> instants;
};

inline Timeline BuildTimeline(
    const std::vector<std::vector<Situation>>& streams) {
  Timeline tl;
  for (int sym = 0; sym < static_cast<int>(streams.size()); ++sym) {
    for (const Situation& s : streams[sym]) {
      Situation ongoing = s;
      ongoing.te = kTimeUnknown;
      tl.started[s.ts].push_back(SymbolSituation{sym, ongoing});
      tl.finished[s.te].push_back(SymbolSituation{sym, s});
      tl.instants.insert(s.ts);
      tl.instants.insert(s.te);
    }
  }
  return tl;
}

}  // namespace testing
}  // namespace tpstream

#endif  // TPSTREAM_TESTS_TEST_UTIL_H_
