#ifndef TPSTREAM_CORE_MATCH_ENGINE_H_
#define TPSTREAM_CORE_MATCH_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/serde.h"
#include "common/status.h"
#include "core/query_spec.h"
#include "derive/deriver.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/matcher.h"
#include "obs/metrics.h"
#include "optimizer/plan_optimizer.h"
#include "optimizer/shared_plan_cache.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The post-derivation half of one TPStream query: matchers, adaptive
/// controller, RETURN projection and the per-query observability handles.
///
/// Extracted from TPStreamOperator so that the multi-query engine
/// (multi::QueryGroup) can run one shared Deriver and fan its situation
/// updates out to many engines, while every engine executes exactly the
/// code a standalone operator would — the differential tests pin the two
/// deployments to byte-identical matches and metrics.
///
/// The engine does not own the deriver: `deriver` and `spec` must outlive
/// it. `deriver_slots[s]` maps the query-local symbol `s` to the index of
/// its definition inside the (possibly shared, deduplicated) deriver;
/// a standalone operator passes the identity mapping. The mapping is only
/// used to read the freshest aggregates of still-ongoing situations at
/// match time.
///
/// The engine is the MatchSink at the end of the emission chain: the
/// matchers hand it runs of matches, and OnRun projects RETURN into a
/// reused Event, once per run for the bound symbols and per match for the
/// varying one. Both the Match given to the observer and the Event given
/// to the output callback are valid only during the call.
class MatchEngine : private MatchSink {
 public:
  struct Options {
    bool low_latency = true;
    bool adaptive = true;
    double stats_alpha = 0.01;
    double reopt_threshold = 0.2;
    int reopt_interval = 64;
    std::optional<std::vector<int>> fixed_order;
    /// Per-query observability namespace; null disables instrumentation.
    obs::MetricsRegistry* metrics = nullptr;
    robust::OverloadPolicy overload;
    /// Optional cross-query plan memo (see SharedPlanCache); plans are
    /// unchanged by sharing, only the subset-DP is skipped on a hit.
    SharedPlanCache* plan_cache = nullptr;
  };

  using OutputCallback = std::function<void(const Event&)>;

  MatchEngine(const QuerySpec* spec, const Deriver* deriver,
              std::vector<int> deriver_slots, Options options,
              OutputCallback output);

  // The matchers hold this engine's address as their sink.
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Advances the input-event count by `n` without matching work. A
  /// standalone operator calls NoteEvents(1) per event; a QueryGroup
  /// advances lazily (just before a Consume and at Flush), so per-query
  /// counts are exact at every point an engine acts and at quiescence.
  void NoteEvents(int64_t n);

  /// Processes one deriver step for this query: feeds the matchers (the
  /// update vectors are consumed by move), runs the adaptive controller
  /// and publishes statistics every `reopt_interval`-th call, the
  /// controller's check cadence. No-op on an empty update.
  void Consume(Deriver::Update& update, TimePoint t);

  /// Synchronization point: brings the published statistics gauges up to
  /// date. Idempotent; the stream may continue with further Consume()
  /// calls afterwards.
  void Flush();

  /// Observes every match before RETURN projection. The Match is a view
  /// valid only during the call; call Match::ToOwned() to keep it.
  void SetMatchObserver(MatchCallback observer) {
    match_observer_ = std::move(observer);
  }
  void ForceEvaluationOrder(const std::vector<int>& order);

  /// Returns the engine to its freshly-constructed state: event/match
  /// counts, matcher state (buffers, trigger pool, exactly-once
  /// fingerprints), statistics and the adaptive controller are all rewound
  /// and the initial cost-based plan is re-installed. Observability
  /// counters keep accumulating (process lifetime). The engine does not
  /// own the deriver — callers resetting an operator reset both halves.
  void Reset();

  /// Serializes all stream-derived engine state: logical event/match
  /// counts, the active matcher and the adaptive controller. Part of an
  /// enclosing checkpoint; the event-log offset lives in the surface
  /// envelope (TPStreamOperator, PartitionedTPStream, QueryGroup).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on an engine with the same configuration
  /// (same pattern, matcher mode and adaptivity). On error the engine
  /// must be Reset() or discarded before further use.
  Status Restore(ckpt::Reader& r);

  int64_t num_events() const { return num_events_; }
  int64_t num_matches() const { return num_matches_; }
  std::vector<int> CurrentOrder() const;
  const MatcherStats& stats() const;
  int64_t plan_migrations() const {
    return controller_ ? controller_->migrations() : 0;
  }
  size_t BufferedCount() const;
  int64_t shed_situations() const;
  int64_t lost_match_upper_bound() const;
  int64_t shed_trigger_candidates() const;

 private:
  /// Per match of the run: counts it, feeds the detection-latency
  /// histogram and the observer, and projects RETURN into output_event_
  /// for `output_`.
  void OnRun(const MatchRun& run) override;

  /// One RETURN item of situation `s` (bound to `item.symbol`).
  Value Project(const ReturnItem& item, const Situation& s) const;

  /// Builds the adaptive controller (per Options) and installs the
  /// initial cost-based plan; shared by the constructor and Reset().
  void InstallInitialPlan();

  const QuerySpec* spec_;
  const Deriver* deriver_;
  std::vector<int> deriver_slots_;
  Options options_;
  OutputCallback output_;
  MatchCallback match_observer_;

  std::unique_ptr<Matcher> matcher_;               // baseline mode
  std::unique_ptr<LowLatencyMatcher> ll_matcher_;  // low-latency mode
  std::unique_ptr<AdaptiveController> controller_;

  int64_t num_events_ = 0;
  int64_t num_matches_ = 0;
  // Non-empty Consume() calls, for the stats-publish cadence. Diagnostic
  // only, so it is not part of the checkpoint.
  int64_t num_consumes_ = 0;
  // RETURN projection target, reused across matches (payload capacity is
  // kept), so emission does not allocate.
  Event output_event_;
  // Indices into spec_->returns, per symbol: the items a run overwrites
  // per match.
  std::vector<std::vector<int>> return_items_of_;

  // Observability handles (null when metrics are disabled).
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* matches_ctr_ = nullptr;
  obs::LatencyHistogram* detection_latency_hist_ = nullptr;
  MatcherStatsPublisher stats_publisher_;
};

}  // namespace tpstream

#endif  // TPSTREAM_CORE_MATCH_ENGINE_H_
