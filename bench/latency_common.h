#ifndef TPSTREAM_BENCH_LATENCY_COMMON_H_
#define TPSTREAM_BENCH_LATENCY_COMMON_H_

// Shared machinery for the wall-clock latency experiments (Figure 7 b/c):
// the disconnected pattern "A before B overlaps C" on synthetic streams,
// evaluated by TPStream (low latency) and ISEQ.
//
// Latency is split as in Section 6.3.2:
//  - processing latency: wall time between the arrival of the event that
//    triggered a result and the receipt of that result (measured with the
//    monotonic clock around each push);
//  - event latency: the application-time gap between the earliest event
//    that could have triggered the result (t_d, computed analytically per
//    configuration) and the event that actually triggered it, converted
//    to wall time via the event rate. TPStream triggers at t_d, so its
//    event latency is zero by construction.

#include <cstdio>

#include "algebra/detection.h"
#include "baselines/iseq.h"
#include "bench/bench_util.h"
#include "core/operator.h"

namespace tpstream {
namespace bench {

inline TemporalPattern LatencyPattern() {
  TemporalPattern p({"A", "B", "C"});
  (void)p.AddRelation(0, Relation::kBefore, 1);
  (void)p.AddRelation(1, Relation::kOverlaps, 2);
  return p;
}

struct LatencyRun {
  double wall_ms = 0;          // total push-loop time (generation excluded)
  double events_pushed = 0;
  double avg_processing_ms = 0;  // mean per-result processing latency
  double avg_event_gap_s = 0;    // mean application-time trigger gap
  int64_t matches = 0;
  /// Full observability snapshot of the run: the engine metrics (for
  /// TPStream: deriver.* / matcher.* / operator.* incl. the shared
  /// matcher.detection_latency histogram) plus the measurement-side
  /// `bench.processing_us` and `bench.event_gap_ticks` histograms.
  obs::MetricsSnapshot metrics;

  obs::HistogramSnapshot processing_us() const {
    auto it = metrics.histograms.find("bench.processing_us");
    return it == metrics.histograms.end() ? obs::HistogramSnapshot{}
                                          : it->second;
  }
  obs::HistogramSnapshot event_gap_ticks() const {
    auto it = metrics.histograms.find("bench.event_gap_ticks");
    return it == metrics.histograms.end() ? obs::HistogramSnapshot{}
                                          : it->second;
  }
};

/// Runs `push(event, on_this_push_start_ms)` over `events` synthetic
/// events; the callbacks record per-match processing latency and t_d gap.
template <typename PushFn>
LatencyRun DriveLatency(int64_t events, PushFn&& push) {
  SyntheticGenerator::Options gopts;
  gopts.num_streams = 3;
  SyntheticGenerator gen(gopts);
  LatencyRun run;
  const double start = NowMs();
  for (int64_t i = 0; i < events; ++i) {
    const Event e = gen.Next();
    push(e);
  }
  run.wall_ms = NowMs() - start;
  run.events_pushed = static_cast<double>(events);
  return run;
}

struct LatencyObserver {
  const TemporalPattern* pattern = nullptr;
  double push_start_ms = 0;
  double processing_sum_ms = 0;
  double gap_sum_s = 0;
  int64_t matches = 0;
  /// Histograms backing the percentile columns (registered once).
  obs::LatencyHistogram* processing_us = nullptr;
  obs::LatencyHistogram* gap_ticks = nullptr;

  explicit LatencyObserver(obs::MetricsRegistry* registry) {
    processing_us = registry->GetHistogram("bench.processing_us");
    gap_ticks = registry->GetHistogram("bench.event_gap_ticks");
  }

  void OnMatch(const Match& m) {
    const double processing_ms = NowMs() - push_start_ms;
    processing_sum_ms += processing_ms;
    processing_us->Record(static_cast<int64_t>(processing_ms * 1000.0));
    const TimePoint td = EarliestDetection(*pattern, m.situations);
    const TimePoint gap = m.detected_at - td;
    gap_sum_s += static_cast<double>(gap);
    gap_ticks->Record(gap);
    ++matches;
  }

  void Finish(LatencyRun* run, const obs::MetricsRegistry& registry) const {
    run->matches = matches;
    if (matches > 0) {
      run->avg_processing_ms = processing_sum_ms / matches;
      run->avg_event_gap_s = gap_sum_s / matches;
    }
    run->metrics = registry.Snapshot();
  }
};

inline LatencyRun MeasureTpstream(int64_t events, Duration window) {
  const TemporalPattern pattern = LatencyPattern();
  obs::MetricsRegistry registry;
  LatencyObserver observer(&registry);
  observer.pattern = &pattern;
  QuerySpec spec = SyntheticSpec(3, pattern, window);
  TPStreamOperator::Options options;
  options.metrics = &registry;
  TPStreamOperator op(spec, options, nullptr);
  op.SetMatchObserver([&](const Match& m) {
    // Ongoing situations have unknown ends; complete them for t_d
    // analysis by treating detection time as a lower bound (gap is zero
    // whenever detection happened at the current instant anyway).
    observer.OnMatch(m);
  });
  LatencyRun run = DriveLatency(events, [&](const Event& e) {
    observer.push_start_ms = NowMs();
    op.Push(e);
  });
  observer.Finish(&run, registry);
  return run;
}

inline LatencyRun MeasureIseq(int64_t events, Duration window) {
  const TemporalPattern pattern = LatencyPattern();
  obs::MetricsRegistry registry;
  LatencyObserver observer(&registry);
  observer.pattern = &pattern;
  IseqOperator op(SyntheticDefinitions(3), pattern, window,
                  [&](const Match& m) { observer.OnMatch(m); });
  LatencyRun run = DriveLatency(events, [&](const Event& e) {
    observer.push_start_ms = NowMs();
    op.Push(e);
  });
  observer.Finish(&run, registry);
  return run;
}

}  // namespace bench
}  // namespace tpstream

#endif  // TPSTREAM_BENCH_LATENCY_COMMON_H_
