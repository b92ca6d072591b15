#ifndef TPSTREAM_MATCHER_MATCH_H_
#define TPSTREAM_MATCHER_MATCH_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/situation.h"
#include "common/time.h"
#include "matcher/situation_buffer.h"

namespace tpstream {

/// An owning copy of a match, for consumers that keep matches past the
/// callback (see Match::ToOwned()).
struct OwnedMatch {
  /// One situation per pattern symbol, indexed by symbol.
  std::vector<Situation> config;
  TimePoint detected_at = 0;
};

/// A temporal configuration matching the pattern (Definition 11/12), as a
/// non-owning view: one pointer per pattern symbol into the matcher's
/// state (situation buffers and started slots) plus the detection time.
///
/// Lifetime contract: a Match and every Situation it refers to are valid
/// only for the duration of the call that receives it. The matchers
/// mutate and reuse the underlying storage as soon as the call returns.
/// A consumer that keeps a match calls ToOwned().
struct Match {
  /// Indexed by symbol. With low-latency matching, entries may still be
  /// ongoing (te == kTimeUnknown); their payload is the aggregate
  /// snapshot taken when the situation was announced.
  std::span<const Situation* const> situations;

  /// Application timestamp at which the match was concluded. For the
  /// baseline matcher this equals max(s.te); the low-latency matcher
  /// reports the earliest possible detection time t_d (Section 5.3).
  TimePoint detected_at = 0;

  size_t size() const { return situations.size(); }
  const Situation& operator[](size_t symbol) const {
    return *situations[symbol];
  }

  /// Deep copy of the configuration, safe to keep after the callback.
  OwnedMatch ToOwned() const {
    OwnedMatch owned;
    owned.config.reserve(situations.size());
    for (const Situation* s : situations) owned.config.push_back(*s);
    owned.detected_at = detected_at;
    return owned;
  }
};

/// A block of matches that differ only in one symbol (the last join step's
/// candidates, Section 5.2): the working set binds every other symbol,
/// and `symbol` ranges over the logical positions [lo, hi) of `buffer`.
/// Every position is a match — the join core has already applied the
/// constraints and the window. A fully bound configuration is a run of
/// one with `buffer == nullptr` (and `symbol == -1`).
///
/// Lifetime contract: as for Match, a run and everything it refers to
/// are valid only during the call that receives it. Iterating binds
/// `working_set[symbol]` to each candidate in turn, so the Match views
/// ForEach hands out are valid only until the next candidate.
struct MatchRun {
  std::span<const Situation*> working_set;
  int symbol = -1;
  const SituationBuffer* buffer = nullptr;
  uint32_t lo = 0;
  uint32_t hi = 1;
  /// Detection time of every match in the run.
  TimePoint detected_at = 0;

  size_t size() const { return hi - lo; }

  /// Calls fn(const Match&) for every match of the run, in buffer order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Match match{working_set, detected_at};
    if (buffer == nullptr) {
      fn(match);
      return;
    }
    const Situation** slot = &working_set[symbol];
    buffer->ForEachIn(lo, hi, [&](const Situation& s) {
      *slot = &s;
      fn(match);
    });
  }
};

/// The one emission interface inside the engine: the join core hands
/// every run of matches to a sink, which is either the low-latency
/// matcher's exactly-once step or the MatchEngine (RETURN projection and
/// output). One virtual call per hop and run; nothing is built per
/// trigger or per match.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnRun(const MatchRun& run) = 0;
};

/// Callback form of a match consumer, used at the public edges
/// (MatchEngine::SetMatchObserver, the baseline operators). The Match is
/// valid only during the call; see the lifetime contract above.
using MatchCallback = std::function<void(const Match&)>;

/// Adapts a MatchCallback to MatchSink, for callers that drive a matcher
/// directly with a lambda (tests and benches).
class CallbackSink final : public MatchSink {
 public:
  explicit CallbackSink(MatchCallback callback)
      : callback_(std::move(callback)) {}
  void OnRun(const MatchRun& run) override { run.ForEach(callback_); }

 private:
  MatchCallback callback_;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_MATCH_H_
