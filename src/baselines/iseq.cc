#include "baselines/iseq.h"

#include <numeric>

namespace tpstream {

IseqMatcher::IseqMatcher(TemporalPattern pattern, Duration window,
                         MatchCallback cb)
    : pattern_(std::move(pattern)),
      window_(window),
      callback_(std::move(cb)),
      buffers_(pattern_.num_symbols()),
      working_set_(pattern_.num_symbols(), nullptr) {
  order_.resize(pattern_.num_symbols());
  std::iota(order_.begin(), order_.end(), 0);
}

void IseqMatcher::SetEvaluationOrder(const std::vector<int>& permutation) {
  order_ = permutation;
}

void IseqMatcher::Update(const std::vector<SymbolSituation>& finished,
                         TimePoint now) {
  for (SituationBuffer& buf : buffers_) buf.PurgeBefore(now - window_);
  for (const SymbolSituation& ss : finished) {
    SituationBuffer& buf = buffers_[ss.symbol];
    buf.Append(ss.situation);
    working_set_.assign(working_set_.size(), nullptr);
    working_set_[ss.symbol] = &buf.Back();
    Step(0, now);
  }
}

bool IseqMatcher::CheckAgainstBound(int symbol) const {
  // Full predicate check of every constraint between `symbol` and the
  // already-bound symbols (ISEQ has no start-order index; start conditions
  // are verified per candidate).
  for (const TemporalConstraint& c : pattern_.constraints()) {
    int other = -1;
    if (c.a == symbol) {
      other = c.b;
    } else if (c.b == symbol) {
      other = c.a;
    } else {
      continue;
    }
    if (working_set_[other] == nullptr) continue;
    const Situation& sa = *working_set_[c.a];
    const Situation& sb = *working_set_[c.b];
    bool any = false;
    c.relations.ForEach([&](Relation r) { any = any || Holds(r, sa, sb); });
    if (!any) return false;
  }
  return true;
}

void IseqMatcher::Step(size_t step_index, TimePoint now) {
  if (step_index == order_.size()) {
    TimePoint min_ts = kTimeMax;
    TimePoint max_te = kTimeMin;
    for (const Situation* s : working_set_) {
      min_ts = std::min(min_ts, s->ts);
      max_te = std::max(max_te, s->te);
    }
    if (max_te - min_ts > window_) return;
    ++num_matches_;
    if (callback_) callback_(Match{working_set_, now});
    return;
  }
  const int symbol = order_[step_index];
  if (working_set_[symbol] != nullptr) {
    if (CheckAgainstBound(symbol)) Step(step_index + 1, now);
    return;
  }

  // Narrow candidates with binary search on the end timestamp only, then
  // filter each candidate against the full constraint predicates.
  const SituationBuffer& buf = buffers_[symbol];
  if (buf.empty()) return;
  IndexRange candidates{0, static_cast<uint32_t>(buf.size())};
  bool constrained = false;
  for (const TemporalConstraint& c : pattern_.constraints()) {
    const bool symbol_is_a = (c.a == symbol);
    const int other = symbol_is_a ? c.b : c.a;
    if ((!symbol_is_a && c.b != symbol) || working_set_[other] == nullptr) {
      continue;
    }
    IndexRanges te_union;
    c.relations.ForEach([&](Relation r) {
      const auto bounds = BoundsForCounterpart(r, *working_set_[other],
                                               /*fixed_is_a=*/!symbol_is_a);
      if (!bounds) return;
      te_union.Add(buf.FindTe(bounds->te_range));
    });
    // Collapse the union to one covering range: ISEQ tracks a single
    // scan interval per buffer.
    if (te_union.empty()) return;
    const IndexRange covering{te_union.ranges().front().lo,
                              te_union.ranges().back().hi};
    candidates = candidates.Intersect(covering);
    constrained = true;
    if (candidates.empty()) return;
  }
  (void)constrained;
  for (uint32_t i = candidates.lo; i < candidates.hi; ++i) {
    working_set_[symbol] = &buf.At(i);
    if (CheckAgainstBound(symbol)) Step(step_index + 1, now);
  }
  working_set_[symbol] = nullptr;
}

size_t IseqMatcher::BufferedCount() const {
  size_t total = 0;
  for (const SituationBuffer& b : buffers_) total += b.size();
  return total;
}

IseqOperator::IseqOperator(std::vector<SituationDefinition> definitions,
                           TemporalPattern pattern, Duration window,
                           MatchCallback cb)
    : deriver_(std::move(definitions), /*announce_starts=*/false),
      matcher_(std::move(pattern), window, std::move(cb)) {}

void IseqOperator::Push(const Event& event) {
  const Deriver::Update& update = deriver_.Process(event);
  if (!update.finished.empty()) {
    matcher_.Update(update.finished, event.t);
  }
}

}  // namespace tpstream
