#include "core/match_engine.h"

#include <algorithm>

#include "algebra/detection.h"

namespace tpstream {

MatchEngine::MatchEngine(const QuerySpec* spec, const Deriver* deriver,
                         std::vector<int> deriver_slots, Options options,
                         OutputCallback output)
    : spec_(spec),
      deriver_(deriver),
      deriver_slots_(std::move(deriver_slots)),
      options_(std::move(options)),
      output_(std::move(output)),
      return_items_of_(spec_->pattern.num_symbols()) {
  for (size_t k = 0; k < spec_->returns.size(); ++k) {
    return_items_of_[spec_->returns[k].symbol].push_back(static_cast<int>(k));
  }
  // The base is private; convert here, where it is accessible.
  MatchSink* sink = this;
  if (options_.low_latency) {
    // Duration constraints in *query symbol* order: the shared deriver
    // stores definitions in deduplicated order, so index through the
    // slot mapping (the identity for a standalone operator).
    const std::vector<DurationConstraint> shared = deriver_->durations();
    std::vector<DurationConstraint> durations;
    durations.reserve(deriver_slots_.size());
    for (int slot : deriver_slots_) durations.push_back(shared[slot]);
    DetectionAnalysis analysis(spec_->pattern, std::move(durations));
    ll_matcher_ = std::make_unique<LowLatencyMatcher>(
        spec_->pattern, std::move(analysis), spec_->window, sink,
        options_.stats_alpha);
  } else {
    matcher_ = std::make_unique<Matcher>(spec_->pattern, spec_->window, sink,
                                         options_.stats_alpha);
  }

  if (!options_.overload.unbounded()) {
    if (ll_matcher_) ll_matcher_->SetOverload(options_.overload);
    if (matcher_) matcher_->SetOverload(options_.overload);
  }

  if (options_.metrics != nullptr) {
    if (ll_matcher_) ll_matcher_->EnableMetrics(options_.metrics);
    if (matcher_) matcher_->EnableMetrics(options_.metrics);
    events_ctr_ = options_.metrics->GetCounter("operator.events");
    matches_ctr_ = options_.metrics->GetCounter("operator.matches");
    detection_latency_hist_ =
        options_.metrics->GetHistogram("matcher.detection_latency");
    stats_publisher_ = MatcherStatsPublisher(options_.metrics, spec_->pattern);
  }

  InstallInitialPlan();
}

void MatchEngine::InstallInitialPlan() {
  if (options_.fixed_order.has_value()) {
    if (ll_matcher_) ll_matcher_->SetEvaluationOrder(*options_.fixed_order);
    if (matcher_) matcher_->SetEvaluationOrder(*options_.fixed_order);
  } else {
    // Install the cost-based initial plan (Table 3 selectivities).
    AdaptiveController::Options copts;
    copts.threshold = options_.reopt_threshold;
    copts.check_interval = options_.reopt_interval;
    copts.low_latency = options_.low_latency;
    copts.metrics = options_.metrics;
    copts.plan_cache = options_.plan_cache;
    controller_ = std::make_unique<AdaptiveController>(&spec_->pattern, copts);
    if (auto order = controller_->MaybeReoptimize(stats())) {
      if (ll_matcher_) ll_matcher_->SetEvaluationOrder(*order);
      if (matcher_) matcher_->SetEvaluationOrder(*order);
    }
    if (!options_.adaptive) controller_.reset();
  }
}

void MatchEngine::Reset() {
  num_events_ = 0;
  num_matches_ = 0;
  num_consumes_ = 0;
  if (ll_matcher_) ll_matcher_->Reset();
  if (matcher_) matcher_->Reset();
  // Rebuild the adaptive state exactly as construction would: fresh
  // controller (or none), initial cost-based plan re-installed on the
  // just-reset statistics.
  controller_.reset();
  InstallInitialPlan();
}

void MatchEngine::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kMatchEngine);
  w.I64(num_events_);
  w.I64(num_matches_);
  w.Bool(ll_matcher_ != nullptr);
  if (ll_matcher_) {
    ll_matcher_->Checkpoint(w);
  } else {
    matcher_->Checkpoint(w);
  }
  w.Bool(controller_ != nullptr);
  if (controller_) controller_->Checkpoint(w);
  w.EndSection(cookie);
}

Status MatchEngine::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kMatchEngine);
  const int64_t num_events = r.I64();
  const int64_t num_matches = r.I64();
  const bool low_latency = r.Bool();
  if (r.ok() && low_latency != (ll_matcher_ != nullptr)) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: matcher mode mismatch (low_latency option changed?)"));
    return r.status();
  }
  Status status = ll_matcher_ ? ll_matcher_->Restore(r) : matcher_->Restore(r);
  if (!status.ok()) return status;
  const bool adaptive = r.Bool();
  if (r.ok() && adaptive != (controller_ != nullptr)) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: adaptivity mismatch (adaptive option changed?)"));
    return r.status();
  }
  if (controller_) {
    status = controller_->Restore(r);
    if (!status.ok()) return status;
  }
  status = r.EndSection(end);
  if (!status.ok()) return status;
  num_events_ = num_events;
  num_matches_ = num_matches;
  return Status::OK();
}

void MatchEngine::NoteEvents(int64_t n) {
  num_events_ += n;
  if (events_ctr_ != nullptr) events_ctr_->Inc(n);
}

void MatchEngine::Consume(Deriver::Update& update, TimePoint t) {
  if (update.empty()) return;

  // The update vectors are scratch, cleared by the producer; the matcher
  // is free to move the situations out of them.
  if (ll_matcher_) {
    ll_matcher_->Consume(update.started, update.finished, t);
  } else if (!update.finished.empty()) {
    matcher_->Consume(update.finished, t);
  }

  if (controller_ != nullptr) {
    if (auto order = controller_->MaybeReoptimize(stats())) {
      if (ll_matcher_) ll_matcher_->SetEvaluationOrder(*order);
      if (matcher_) matcher_->SetEvaluationOrder(*order);
    }
  }

  // EMAs change only here; publishing every reopt_interval-th consume
  // (the controller's check cadence) keeps the gauges fresh without
  // touching the per-event fast path. Counting events instead would
  // publish only when a consume happened to land on a multiple.
  ++num_consumes_;
  if (stats_publisher_.enabled() &&
      num_consumes_ % std::max(options_.reopt_interval, 1) == 0) {
    stats_publisher_.Publish(stats());
  }
}

void MatchEngine::Flush() {
  if (stats_publisher_.enabled()) stats_publisher_.Publish(stats());
}

Value MatchEngine::Project(const ReturnItem& item, const Situation& s) const {
  switch (item.source) {
    case ReturnItem::Source::kStartTime:
      return Value(static_cast<int64_t>(s.ts));
    case ReturnItem::Source::kEndTime:
      return s.ongoing() ? Value::Null() : Value(static_cast<int64_t>(s.te));
    case ReturnItem::Source::kDuration:
      return s.ongoing() ? Value::Null()
                         : Value(static_cast<int64_t>(s.duration()));
    case ReturnItem::Source::kAggregate:
      break;
  }
  const int slot = deriver_slots_[item.symbol];
  if (s.ongoing() && deriver_->IsOngoing(slot)) {
    // Freshest aggregate for situations still being derived.
    return deriver_->OngoingAggregate(slot, item.agg_index);
  }
  return item.agg_index < static_cast<int>(s.payload.size())
             ? s.payload[item.agg_index]
             : Value::Null();
}

void MatchEngine::OnRun(const MatchRun& run) {
  if (matches_ctr_ != nullptr) {
    matches_ctr_->Inc(static_cast<int64_t>(run.size()));
  }
  // Project in place: the event's payload keeps its capacity across
  // matches. The bound symbols are the same for every match of the run,
  // so their items are projected once; per match only the varying
  // symbol's items are overwritten.
  Tuple& payload = output_event_.payload;
  if (output_) {
    payload.clear();
    for (const ReturnItem& item : spec_->returns) {
      payload.push_back(item.symbol == run.symbol
                            ? Value::Null()
                            : Project(item, *run.working_set[item.symbol]));
    }
  }
  const std::vector<int>* varying_items =
      run.symbol >= 0 ? &return_items_of_[run.symbol] : nullptr;
  run.ForEach([&](const Match& match) {
    ++num_matches_;
    if (detection_latency_hist_ != nullptr) {
      // Detection latency in application time: how far behind the
      // analytic earliest detection instant t_d (Section 5.3.1) this
      // match surfaced. The low-latency matcher should pin this at ~0;
      // the baseline matcher pays the distance between t_d and the last
      // end timestamp.
      const TimePoint td =
          EarliestDetection(spec_->pattern, match.situations);
      if (td != kTimeMax && match.detected_at >= td) {
        detection_latency_hist_->Record(
            static_cast<int64_t>(match.detected_at - td));
      }
    }
    if (match_observer_) match_observer_(match);
    if (!output_) return;
    if (varying_items != nullptr) {
      for (int k : *varying_items) {
        payload[k] = Project(spec_->returns[k], match[run.symbol]);
      }
    }
    output_event_.t = match.detected_at;
    output_(output_event_);
  });
}

void MatchEngine::ForceEvaluationOrder(const std::vector<int>& order) {
  if (ll_matcher_) ll_matcher_->SetEvaluationOrder(order);
  if (matcher_) matcher_->SetEvaluationOrder(order);
}

std::vector<int> MatchEngine::CurrentOrder() const {
  return ll_matcher_ ? ll_matcher_->CurrentOrder() : matcher_->CurrentOrder();
}

const MatcherStats& MatchEngine::stats() const {
  return ll_matcher_ ? ll_matcher_->stats() : matcher_->stats();
}

size_t MatchEngine::BufferedCount() const {
  return ll_matcher_ ? ll_matcher_->BufferedCount()
                     : matcher_->BufferedCount();
}

int64_t MatchEngine::shed_situations() const {
  return ll_matcher_ ? ll_matcher_->shed_situations()
                     : matcher_->shed_situations();
}

int64_t MatchEngine::lost_match_upper_bound() const {
  return ll_matcher_ ? ll_matcher_->lost_match_upper_bound()
                     : matcher_->lost_match_upper_bound();
}

int64_t MatchEngine::shed_trigger_candidates() const {
  return ll_matcher_ ? ll_matcher_->shed_trigger_candidates() : 0;
}

}  // namespace tpstream
