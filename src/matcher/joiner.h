#ifndef TPSTREAM_MATCHER_JOINER_H_
#define TPSTREAM_MATCHER_JOINER_H_

#include <vector>

#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/eval_order.h"
#include "matcher/match.h"
#include "matcher/situation_buffer.h"
#include "matcher/stats.h"
#include "obs/metrics.h"

namespace tpstream {

/// The pattern-matching join core shared by the baseline and the
/// low-latency matcher (Algorithm 3 / PerformMatch).
///
/// Owns one SituationBuffer per symbol and enumerates all temporal
/// configurations that extend a partially bound working set, following the
/// current evaluation order. For unbound symbols, candidates are found
/// with binary-search range queries per temporal relation, unioned within
/// a constraint and intersected across constraints (Section 5.2,
/// Figure 3). Bound entries may be ongoing; every emitted configuration is
/// *certain* to match (three-valued constraint evaluation).
///
/// Emission copies nothing and is run-at-a-time: the last unbound step's
/// candidates, clipped to the window, reach the MatchSink as MatchRuns
/// over the working set (pointers into the buffers and the caller's
/// started slots), valid only during that call.
class PatternJoiner {
 public:
  PatternJoiner(const TemporalPattern* pattern, Duration window);

  void SetOrder(EvaluationOrder order) { order_ = std::move(order); }
  const EvaluationOrder& order() const { return order_; }

  /// Ablation switch: scan buffers linearly and test every candidate
  /// against the constraints (the naive strategy of Equation 1) instead
  /// of binary-search range queries (Equation 2). Results are identical;
  /// only the cost differs. Used by bench_ablation_rangequery.
  void SetNaiveScan(bool naive) { naive_scan_ = naive; }

  /// Registers the `matcher.*` join-core counters (probes, range queries
  /// and their hits, partial configurations, full matches, window
  /// rejects) with `registry` and starts recording into them, plus the
  /// `robust.shed_situations` / `robust.lost_match_upper_bound` overload
  /// counters. Disabled (null handles, a dead branch per site) by
  /// default.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Overload protection (Degradation contract): caps every symbol
  /// buffer at `max_per_buffer` finished situations. 0 disables the cap;
  /// non-zero values are clamped to >= 1 so the newest situation always
  /// survives (incremental matching forces it into every new
  /// configuration). Enforcement happens via EnforceCap() after each
  /// append; evictions drop the *oldest* situations and are accounted.
  void SetSituationCap(size_t max_per_buffer) {
    situation_cap_ = max_per_buffer;
  }
  size_t situation_cap() const { return situation_cap_; }

  /// Evicts `symbol`'s buffer down to the cap (oldest first), updating
  /// the shed accounting. Called by the matchers right after appending.
  void EnforceCap(int symbol);

  /// Situations evicted by cap enforcement since construction.
  int64_t shed_situations() const { return shed_situations_; }
  /// Upper bound on the matches that were enumerable at shed time (one
  /// candidate per other symbol already buffered) and can no longer be
  /// emitted. Configurations completed by situations arriving *after*
  /// the shed are additionally lost and not counted here — see
  /// docs/architecture.md, "Degradation contract".
  int64_t lost_match_upper_bound() const { return lost_match_bound_; }

  SituationBuffer& buffer(int symbol) { return buffers_[symbol]; }
  const SituationBuffer& buffer(int symbol) const { return buffers_[symbol]; }

  void PurgeBefore(TimePoint min_ts) {
    for (SituationBuffer& b : buffers_) b.PurgeBefore(min_ts);
  }

  /// Total buffered situations / approximate state bytes (for the memory
  /// experiments of Section 6.2.2).
  size_t BufferedCount() const;

  /// Drops all stream-derived state: every situation buffer and the shed
  /// accounting. The installed evaluation order and configuration
  /// (window, caps, metrics handles) survive — they are plan/config, not
  /// stream state. Observability counters keep accumulating (process
  /// lifetime, Durability contract).
  void Reset();

  /// Serializes buffers, shed accounting and the evaluation order.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores from a checkpoint taken on a joiner over the same pattern.
  Status Restore(ckpt::Reader& r);

  /// Enumerates every certain configuration containing all non-null
  /// entries of `working_set` (pointers indexed by symbol) and hands them
  /// to `sink` as runs over `working_set`. `now` is the current
  /// application time, used to close the window condition for ongoing
  /// entries. Statistics are folded into `stats` when non-null.
  void Enumerate(std::vector<const Situation*>& working_set, TimePoint now,
                 MatchSink& sink, MatcherStats* stats);

 private:
  /// Reused per evaluation depth (Step recursion level): candidate-set
  /// construction never allocates in steady state because the range
  /// vectors keep their capacity across probes.
  struct StepScratch {
    IndexRanges result;
    IndexRanges per_constraint;
    IndexRanges tmp;
  };

  void Step(std::vector<const Situation*>& ws, size_t step_index,
            size_t last_unbound, TimePoint now, MatchSink& sink,
            MatcherStats* stats);

  /// The last unbound step (or, at `step_index == steps().size()`, the
  /// end of a fully pre-bound order): checks the trailing pre-bound
  /// steps and the prefix's window once per bound prefix, clips the
  /// candidate ranges to the window by binary search, and hands the
  /// surviving runs to `sink`.
  void EmitRuns(std::vector<const Situation*>& ws, size_t step_index,
                TimePoint now, MatchSink& sink, MatcherStats* stats);

  /// Checks all constraints of `step` whose other endpoint is bound,
  /// against the bound situation of the step's own symbol.
  bool CheckBound(const EvalStep& step,
                  const std::vector<const Situation*>& ws) const;

  /// Candidate indices in the step symbol's buffer satisfying every
  /// applicable constraint (Figure 3: two range queries per relation,
  /// union within a constraint, intersection across constraints). The
  /// returned reference points into `scratch` and is valid until the next
  /// call with the same scratch (i.e. the next probe at this depth).
  const IndexRanges& FindCandidates(const EvalStep& step,
                                    const std::vector<const Situation*>& ws,
                                    MatcherStats* stats,
                                    StepScratch& scratch);

  const IndexRanges& FindCandidatesNaive(
      const EvalStep& step, const std::vector<const Situation*>& ws,
      StepScratch& scratch) const;

  const TemporalPattern* pattern_;
  Duration window_;
  EvaluationOrder order_;
  std::vector<SituationBuffer> buffers_;
  bool naive_scan_ = false;
  std::vector<StepScratch> step_scratch_;  // indexed by recursion depth

  // Overload shedding state (Degradation contract).
  size_t situation_cap_ = 0;  // 0 = unbounded
  int64_t shed_situations_ = 0;
  int64_t lost_match_bound_ = 0;

  // Observability handles (null when metrics are disabled).
  obs::Counter* shed_situations_ctr_ = nullptr;
  obs::Counter* lost_match_bound_ctr_ = nullptr;
  obs::Counter* probes_ctr_ = nullptr;
  obs::Counter* range_queries_ctr_ = nullptr;
  obs::Counter* range_query_hits_ctr_ = nullptr;
  obs::Counter* partial_configs_ctr_ = nullptr;
  obs::Counter* full_matches_ctr_ = nullptr;
  obs::Counter* window_rejects_ctr_ = nullptr;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_JOINER_H_
