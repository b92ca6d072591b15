#include "baselines/strawman.h"

namespace tpstream {

TwoPhaseMatcher::TwoPhaseMatcher(std::vector<SituationDefinition> definitions,
                                 TemporalPattern pattern, Duration window,
                                 MatchCallback callback, Options options)
    : pattern_(std::move(pattern)),
      window_(window),
      callback_(std::move(callback)),
      options_(options),
      buffers_(definitions.size()),
      working_set_(definitions.size(), nullptr) {
  derivers_.reserve(definitions.size());
  for (size_t i = 0; i < definitions.size(); ++i) {
    const SituationDefinition& def = definitions[i];
    // Pattern !S S+ !S: the bracketing non-matching events pin down the
    // interval boundaries (half-open end at the first non-matching event).
    cep::CepPattern cp;
    cp.steps.push_back(cep::PatternStep{"pre", Not(def.predicate), false, {}});
    cp.steps.push_back(
        cep::PatternStep{"body", def.predicate, true, def.aggregates});
    cp.steps.push_back(
        cep::PatternStep{"post", Not(def.predicate), false, {}});
    const int symbol = static_cast<int>(i);
    const DurationConstraint dur = def.duration;
    derivers_.push_back(std::make_unique<cep::NfaEngine>(
        std::move(cp), [this, symbol, dur](const cep::CepMatch& m) {
          const TimePoint ts = m.step_spans[1].first;
          const TimePoint te = m.step_spans[2].first;
          if (!dur.Contains(te - ts)) return;
          OnSituation(symbol, Situation(m.step_aggregates[1], ts, te),
                      m.detected_at);
        }));
  }
}

void TwoPhaseMatcher::Push(const Event& event) {
  if (options_.retain_events) {
    retained_events_.push_back(event);
    while (!retained_events_.empty() &&
           retained_events_.front().t < event.t - window_) {
      retained_events_.pop_front();
    }
  }
  for (auto& deriver : derivers_) deriver->Push(event);
}

void TwoPhaseMatcher::OnSituation(int symbol, const Situation& situation,
                                  TimePoint now) {
  // Linear window purge on every arrival, as a point-based engine would
  // re-evaluate its window views.
  for (auto& buf : buffers_) {
    while (!buf.empty() && buf.front().ts < now - window_) buf.pop_front();
  }
  buffers_[symbol].push_back(situation);
  working_set_.assign(working_set_.size(), nullptr);
  working_set_[symbol] = &buffers_[symbol].back();
  Join(0, now);
}

void TwoPhaseMatcher::Join(size_t symbol_index, TimePoint now) {
  if (symbol_index == buffers_.size()) {
    // Full nested-loop verification of every temporal constraint.
    TimePoint min_ts = kTimeMax;
    TimePoint max_te = kTimeMin;
    for (const Situation* s : working_set_) {
      min_ts = std::min(min_ts, s->ts);
      max_te = std::max(max_te, s->te);
    }
    if (max_te - min_ts > window_) return;
    for (const TemporalConstraint& c : pattern_.constraints()) {
      bool any = false;
      c.relations.ForEach([&](Relation r) {
        any = any || Holds(r, *working_set_[c.a], *working_set_[c.b]);
      });
      if (!any) return;
    }
    ++num_matches_;
    if (callback_) callback_(Match{working_set_, now});
    return;
  }
  if (working_set_[symbol_index] != nullptr) {
    Join(symbol_index + 1, now);
    return;
  }
  for (const Situation& s : buffers_[symbol_index]) {
    working_set_[symbol_index] = &s;
    Join(symbol_index + 1, now);
  }
  working_set_[symbol_index] = nullptr;
}

size_t TwoPhaseMatcher::BufferedCount() const {
  size_t total = retained_events_.size();
  for (const auto& buf : buffers_) total += buf.size();
  for (const auto& deriver : derivers_) total += deriver->active_runs();
  return total;
}

SingleRunMatcher::SingleRunMatcher(cep::CepPattern pattern,
                                   cep::NfaEngine::Callback cb)
    : engine_(std::move(pattern), std::move(cb)) {}

}  // namespace tpstream
