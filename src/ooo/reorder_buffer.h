#ifndef TPSTREAM_OOO_REORDER_BUFFER_H_
#define TPSTREAM_OOO_REORDER_BUFFER_H_

#include <functional>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "robust/dead_letter.h"

namespace tpstream {
namespace ooo {

/// Buffered reordering frontend for out-of-order event streams — the
/// paper's first future-work item (Section 7, following the slack/K-sort
/// approach of the cited out-of-order literature [7, 21]).
///
/// Events may arrive up to `slack` time units late: an event with
/// timestamp t is released only once an event with timestamp >= t + slack
/// has been seen, which guarantees in-order delivery for any input whose
/// disorder is bounded by the slack. Events arriving later than that are
/// counted and dropped (optionally reported via the late-event callback).
///
/// Usage:
///   ooo::ReorderBuffer reorder({.slack = 30});
///   source.OnEvent([&](const Event& e) {
///     reorder.Push(e, [&](const Event& ordered) { op.Push(ordered); });
///   });
///   reorder.Flush([&](const Event& ordered) { op.Push(ordered); });
class ReorderBuffer {
 public:
  struct Options {
    /// Maximum tolerated lateness (in ticks).
    Duration slack = 0;
    /// Optional observability sink: `reorder.released` / `.reordered` /
    /// `.dropped` counters, `reorder.buffered` / `.watermark_lag` gauges
    /// (lag = max seen timestamp minus watermark, in ticks).
    obs::MetricsRegistry* metrics = nullptr;
    /// Quarantine destination for late-dropped events (Degradation
    /// contract): each dropped event is delivered as a kLateEvent item
    /// carrying the intact event and its lateness, *after* the late
    /// callback (which sees the event first and un-moved). Not owned; may
    /// be null (late events are then only counted).
    robust::DeadLetterSink* dead_letter = nullptr;
  };

  using Sink = std::function<void(const Event&)>;
  using LateCallback = std::function<void(const Event&)>;

  explicit ReorderBuffer(Options options) : options_(options) {
    // A negative slack has no sensible reading; treat it as "no slack"
    // (it would also break the saturating watermark arithmetic in Push).
    if (options_.slack < 0) options_.slack = 0;
    if (options_.metrics != nullptr) {
      released_ctr_ = options_.metrics->GetCounter("reorder.released");
      reordered_ctr_ = options_.metrics->GetCounter("reorder.reordered");
      dropped_ctr_ = options_.metrics->GetCounter("reorder.dropped");
      buffered_gauge_ = options_.metrics->GetGauge("reorder.buffered");
      lag_gauge_ = options_.metrics->GetGauge("reorder.watermark_lag");
    }
  }

  /// Inserts one event and forwards every event whose release condition
  /// is met, in timestamp order.
  void Push(const Event& event, const Sink& sink);

  /// Move overload: the event payload is moved into the buffer heap
  /// instead of copied (late-dropped events are not moved from — the
  /// late callback still sees the intact event).
  void Push(Event&& event, const Sink& sink);

  /// Drains all buffered events in order (end of stream).
  void Flush(const Sink& sink);

  /// Invoked (if set) for events too late to be reordered.
  void SetLateCallback(LateCallback cb) { late_callback_ = std::move(cb); }

  /// Replay mode (Durability contract): while a recovery replay re-feeds
  /// a stream prefix whose late events were already quarantined before
  /// the crash, re-dropping them must not deliver them to the dead-letter
  /// sink again — quarantine is exactly-once per decision, and the
  /// decision happened in the original run. Drops during replay still
  /// bump `num_dropped()`, the metrics and the late callback (so replayed
  /// counters stay byte-identical to the uninterrupted run); only the
  /// sink delivery is suppressed. log::RecoveryManager toggles this
  /// around ReplayFrom via Pipeline::SetReplayMode.
  void SetReplayMode(bool replaying) { replaying_ = replaying; }
  bool replay_mode() const { return replaying_; }

  int64_t num_reordered() const { return num_reordered_; }
  int64_t num_dropped() const { return num_dropped_; }
  size_t buffered() const { return size_; }
  TimePoint watermark() const { return watermark_; }

  /// Returns the buffer to its freshly-constructed state: empties the
  /// heap and rewinds watermarks and disorder counters. Configuration
  /// (slack, sinks, metrics) is retained.
  void Reset();

  /// Serializes the buffered events (verbatim heap array layout), the
  /// watermark state and the disorder counters. Restoring the exact array
  /// preserves the release order of equal-timestamp events, which the
  /// replay differential tests rely on.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint. On error the buffer must be Reset() or
  /// discarded before further use.
  Status Restore(ckpt::Reader& r);

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t > b.t;
    }
  };

  /// Shared front half of the Push overloads: late-drop check and
  /// disorder accounting. Returns false when the event was dropped.
  bool Admit(const Event& event);
  /// Delivers a dropped event to the dead-letter sink (after the late
  /// callback already saw it intact).
  void QuarantineLate(Event&& event);
  /// Appends a live slot for `event` to the heap array (reusing a
  /// retained slot when there is one) and restores the heap order.
  template <typename E>
  void Insert(E&& event);
  /// Releases the heap minimum to `sink` and retires its slot.
  void ReleaseFront(const Sink& sink);
  /// Shared back half: advances the watermark and releases in order.
  void ReleaseReady(const Sink& sink);

  Options options_;
  LateCallback late_callback_;
  /// Min-heap on `t` maintained with std::push_heap/std::pop_heap (rather
  /// than std::priority_queue) so checkpoints can serialize and restore
  /// the exact array layout — heap operations are deterministic functions
  /// of the array, so a restored buffer releases equal-timestamp events
  /// in the same order the uninterrupted run would have.
  ///
  /// Only heap_[0, size_) is live. Released slots stay in the array past
  /// size_ with their payload capacity, and a later push copy-assigns
  /// into one of them, so steady-state buffering does not allocate.
  std::vector<Event> heap_;
  size_t size_ = 0;
  TimePoint max_seen_ = kTimeMin;
  TimePoint last_released_ = kTimeMin;
  TimePoint watermark_ = kTimeMin;
  int64_t num_reordered_ = 0;
  int64_t num_dropped_ = 0;
  bool replaying_ = false;

  // Observability handles (null when metrics are disabled).
  obs::Counter* released_ctr_ = nullptr;
  obs::Counter* reordered_ctr_ = nullptr;
  obs::Counter* dropped_ctr_ = nullptr;
  obs::Gauge* buffered_gauge_ = nullptr;
  obs::Gauge* lag_gauge_ = nullptr;
};

}  // namespace ooo
}  // namespace tpstream

#endif  // TPSTREAM_OOO_REORDER_BUFFER_H_
