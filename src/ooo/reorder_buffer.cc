#include "ooo/reorder_buffer.h"

#include <algorithm>
#include <utility>

namespace tpstream {
namespace ooo {

bool ReorderBuffer::Admit(const Event& event) {
  // Ties are legitimate across partitions (several keys reporting in the
  // same tick); only strictly older events are late.
  if (event.t < last_released_) {
    ++num_dropped_;
    if (dropped_ctr_ != nullptr) dropped_ctr_->Inc();
    if (late_callback_) late_callback_(event);
    return false;
  }
  if (event.t < max_seen_) {
    ++num_reordered_;
    if (reordered_ctr_ != nullptr) reordered_ctr_->Inc();
  }
  if (event.t > max_seen_) max_seen_ = event.t;
  return true;
}

template <typename E>
void ReorderBuffer::Insert(E&& event) {
  if (size_ < heap_.size()) {
    heap_[size_] = std::forward<E>(event);
  } else {
    heap_.push_back(std::forward<E>(event));
  }
  ++size_;
  std::push_heap(heap_.begin(), heap_.begin() + size_, Later{});
}

void ReorderBuffer::ReleaseFront(const Sink& sink) {
  last_released_ = heap_.front().t;
  sink(heap_.front());
  // pop_heap moves the minimum to size_ - 1, where it stays as a
  // retained slot.
  std::pop_heap(heap_.begin(), heap_.begin() + size_, Later{});
  --size_;
  if (released_ctr_ != nullptr) released_ctr_->Inc();
}

void ReorderBuffer::ReleaseReady(const Sink& sink) {
  // Release everything at or below the watermark. The subtraction
  // saturates at kTimeMin: for timestamps within `slack` of the lower
  // bound, `max_seen_ - slack` would be signed overflow (UB) and wrap to
  // a huge positive watermark that releases everything prematurely.
  watermark_ = max_seen_ < kTimeMin + options_.slack
                   ? kTimeMin
                   : max_seen_ - options_.slack;
  while (size_ > 0 && heap_.front().t <= watermark_) ReleaseFront(sink);
  if (buffered_gauge_ != nullptr) {
    buffered_gauge_->Set(static_cast<double>(size_));
    lag_gauge_->Set(static_cast<double>(max_seen_ - watermark_));
  }
}

void ReorderBuffer::QuarantineLate(Event&& event) {
  if (options_.dead_letter == nullptr) return;
  // Replayed drops were quarantined by the original run already; the
  // dead-letter channel is exactly-once per decision (counters and the
  // late callback still fired from Admit).
  if (replaying_) return;
  robust::DeadLetterItem item;
  item.kind = robust::DeadLetterKind::kLateEvent;
  item.detail = "late event t=" + std::to_string(event.t) +
                " older than release point " +
                std::to_string(last_released_) + " (slack " +
                std::to_string(options_.slack) + ")";
  item.events.push_back(std::move(event));
  (void)options_.dead_letter->Consume(std::move(item));
}

void ReorderBuffer::Push(const Event& event, const Sink& sink) {
  if (!Admit(event)) {
    QuarantineLate(Event(event));
    return;
  }
  Insert(event);
  ReleaseReady(sink);
}

void ReorderBuffer::Push(Event&& event, const Sink& sink) {
  if (!Admit(event)) {
    // Admit's late callback saw the event intact; only now does the
    // payload move into the quarantine item.
    QuarantineLate(std::move(event));
    return;
  }
  Insert(std::move(event));
  ReleaseReady(sink);
}

void ReorderBuffer::Flush(const Sink& sink) {
  while (size_ > 0) ReleaseFront(sink);
  watermark_ = last_released_;
  if (buffered_gauge_ != nullptr) {
    buffered_gauge_->Set(0.0);
    lag_gauge_->Set(0.0);
  }
}

void ReorderBuffer::Reset() {
  heap_.clear();
  size_ = 0;
  max_seen_ = kTimeMin;
  last_released_ = kTimeMin;
  watermark_ = kTimeMin;
  num_reordered_ = 0;
  num_dropped_ = 0;
  if (buffered_gauge_ != nullptr) {
    buffered_gauge_->Set(0.0);
    lag_gauge_->Set(0.0);
  }
}

void ReorderBuffer::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kReorderBuffer);
  w.U64(size_);
  for (size_t i = 0; i < size_; ++i) w.WriteEvent(heap_[i]);
  w.I64(max_seen_);
  w.I64(last_released_);
  w.I64(watermark_);
  w.I64(num_reordered_);
  w.I64(num_dropped_);
  w.EndSection(cookie);
}

Status ReorderBuffer::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kReorderBuffer);
  const uint64_t n = r.U64();
  if (n > r.remaining()) {
    r.Fail(Status::ParseError("checkpoint: reorder heap size exceeds input"));
    return r.status();
  }
  heap_.clear();
  heap_.reserve(n);
  for (uint64_t i = 0; i < n && r.ok(); ++i) heap_.push_back(r.ReadEvent());
  size_ = heap_.size();
  if (r.ok() && !std::is_heap(heap_.begin(), heap_.end(), Later{})) {
    r.Fail(Status::ParseError(
        "checkpoint: reorder buffer array violates the heap invariant"));
    return r.status();
  }
  max_seen_ = r.I64();
  last_released_ = r.I64();
  watermark_ = r.I64();
  num_reordered_ = r.I64();
  num_dropped_ = r.I64();
  Status status = r.EndSection(end);
  if (status.ok() && buffered_gauge_ != nullptr) {
    buffered_gauge_->Set(static_cast<double>(size_));
    // Subtract in double: untrusted checkpoint values must not take the
    // signed-overflow UB path even when semantically nonsensical.
    lag_gauge_->Set(static_cast<double>(max_seen_) -
                    static_cast<double>(watermark_));
  }
  return status;
}

}  // namespace ooo
}  // namespace tpstream
