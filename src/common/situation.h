#ifndef TPSTREAM_COMMON_SITUATION_H_
#define TPSTREAM_COMMON_SITUATION_H_

#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/time.h"

namespace tpstream {

/// A derived phase lasting a period of time (Definition 5). The payload
/// carries the aggregates computed over the underlying event subsequence.
/// The validity interval [ts, te) is half-open; `te` is the first instant
/// at which the situation no longer holds.
///
/// A situation with `te == kTimeUnknown` is *ongoing*: its start is known
/// but its end is not. Ongoing situations appear only inside the
/// low-latency matcher (Section 5.3); all derived situation streams
/// delivered to clients contain finished situations only.
struct Situation {
  Tuple payload;
  TimePoint ts = 0;
  TimePoint te = kTimeUnknown;

  Situation() = default;
  Situation(Tuple p, TimePoint start, TimePoint end)
      : payload(std::move(p)), ts(start), te(end) {}

  bool ongoing() const { return te == kTimeUnknown; }
  Duration duration() const { return te - ts; }

  std::string ToString() const {
    return "[" + std::to_string(ts) + ", " +
           (ongoing() ? std::string("?") : std::to_string(te)) + ")";
  }
};

/// A situation tagged with the index of the situation stream (pattern
/// symbol) it belongs to.
struct SymbolSituation {
  int symbol = 0;
  Situation situation;
};

/// Spare situation payload storage for an allocation-free update loop.
/// A producer builds each outgoing payload in a tuple taken from the
/// pool; the consumer (SituationBuffer::Append and the low-latency
/// matcher's started slots) swaps a retired payload back into the
/// situation it takes, and the producer reclaims those before it builds
/// the next update. The pool only ever holds tuples that came back from
/// its own updates, so it stays within the largest update's size.
class PayloadPool {
 public:
  void Reserve(size_t n) { spare_.reserve(n); }

  /// Moves every payload that owns storage out of `list` into the pool,
  /// then clears `list`.
  void Reclaim(std::vector<SymbolSituation>* list) {
    for (SymbolSituation& ss : *list) {
      if (ss.situation.payload.capacity() > 0) {
        spare_.push_back(std::move(ss.situation.payload));
      }
    }
    list->clear();
  }

  /// A tuple with recycled capacity when one is spare, else an empty one.
  Tuple Take() {
    if (spare_.empty()) return Tuple();
    Tuple t = std::move(spare_.back());
    spare_.pop_back();
    return t;
  }

 private:
  std::vector<Tuple> spare_;
};

}  // namespace tpstream

#endif  // TPSTREAM_COMMON_SITUATION_H_
