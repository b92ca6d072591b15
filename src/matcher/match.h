#ifndef TPSTREAM_MATCHER_MATCH_H_
#define TPSTREAM_MATCHER_MATCH_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/situation.h"
#include "common/time.h"

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

/// The one emission interface inside the engine: the join core hands
/// every match to a sink, which is either the low-latency matcher's
/// exactly-once step or the MatchEngine (RETURN projection and output).
/// One virtual call per hop; nothing is built per trigger or per match.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnMatch(const Match& match) = 0;
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
  void OnMatch(const Match& match) override { callback_(match); }

 private:
  MatchCallback callback_;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_MATCH_H_
