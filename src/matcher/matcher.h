#ifndef TPSTREAM_MATCHER_MATCHER_H_
#define TPSTREAM_MATCHER_MATCHER_H_

#include <memory>
#include <vector>

#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/joiner.h"
#include "matcher/match.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The baseline matcher component (Algorithms 2 and 3): consumes finished
/// situations ordered by end timestamp and reports every matching temporal
/// configuration exactly once, at the end timestamp of its last situation.
///
/// Matches go straight from the join core to `sink`, which must outlive
/// the matcher.
class Matcher {
 public:
  Matcher(TemporalPattern pattern, Duration window, MatchSink* sink,
          double stats_alpha = 0.01);

  /// Installs a new evaluation order. The matcher keeps no intermediate
  /// state between updates, so migration is free (Section 5.4.1).
  void SetEvaluationOrder(const std::vector<int>& permutation);
  std::vector<int> CurrentOrder() const { return joiner_.order().Permutation(); }

  /// Ablation switch: linear candidate scans instead of range queries
  /// (see PatternJoiner::SetNaiveScan).
  void SetNaiveScan(bool naive) { joiner_.SetNaiveScan(naive); }

  /// Starts recording the `matcher.*` join-core counters into `registry`
  /// (see PatternJoiner::EnableMetrics).
  void EnableMetrics(obs::MetricsRegistry* registry) {
    joiner_.EnableMetrics(registry);
  }

  /// Processes the batch of situations finished at application time `now`
  /// (Algorithm 2): purges expired situations, adds the new ones, and
  /// matches each of them.
  void Update(const std::vector<SymbolSituation>& finished, TimePoint now);

  /// Move-consuming variant used by the operator hot path: situation
  /// payloads are moved (not copied) into the matcher buffers, leaving
  /// `finished` with moved-from elements. Results are identical to
  /// Update(); no allocation occurs in steady state.
  void Consume(std::vector<SymbolSituation>& finished, TimePoint now);

  const TemporalPattern& pattern() const { return pattern_; }
  const MatcherStats& stats() const { return stats_; }
  Duration window() const { return window_; }

  /// Number of buffered situations (memory accounting, Section 6.2.2).
  size_t BufferedCount() const { return joiner_.BufferedCount(); }

  /// Returns the matcher to its freshly-constructed stream state (buffers,
  /// shed accounting, statistics EMAs). Configuration — window, evaluation
  /// order, overload caps, metrics — is retained.
  void Reset();

  /// Serializes all stream-derived state (joiner + statistics).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a matcher over the same pattern. On
  /// error the matcher must be Reset() or discarded before further use.
  Status Restore(ckpt::Reader& r);

  /// Installs the overload caps (Degradation contract); only the
  /// situation-buffer cap applies to the baseline matcher.
  void SetOverload(const robust::OverloadPolicy& policy) {
    joiner_.SetSituationCap(policy.max_situations_per_buffer);
  }
  int64_t shed_situations() const { return joiner_.shed_situations(); }
  int64_t lost_match_upper_bound() const {
    return joiner_.lost_match_upper_bound();
  }

 private:
  TemporalPattern pattern_;
  Duration window_;
  MatchSink* sink_;
  PatternJoiner joiner_;
  MatcherStats stats_;
  std::vector<const Situation*> working_set_;
  // Reused by Update() to hand Consume() a mutable copy of the input.
  std::vector<SymbolSituation> scratch_finished_;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_MATCHER_H_
