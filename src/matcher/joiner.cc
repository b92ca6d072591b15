#include "matcher/joiner.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "robust/saturating.h"

namespace tpstream {

using robust::SaturatingAdd;
using robust::SaturatingMul;
using robust::SaturatingSub;

PatternJoiner::PatternJoiner(const TemporalPattern* pattern, Duration window)
    : pattern_(pattern), window_(window) {
  buffers_.resize(pattern->num_symbols());
  std::vector<int> identity(pattern->num_symbols());
  std::iota(identity.begin(), identity.end(), 0);
  order_ = EvaluationOrder::Build(*pattern, identity);
}

void PatternJoiner::Reset() {
  for (SituationBuffer& b : buffers_) b.Clear();
  shed_situations_ = 0;
  lost_match_bound_ = 0;
}

void PatternJoiner::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kJoiner);
  w.U32(static_cast<uint32_t>(buffers_.size()));
  for (const SituationBuffer& b : buffers_) b.Checkpoint(w);
  w.I64(shed_situations_);
  w.I64(lost_match_bound_);
  const std::vector<int> perm = order_.Permutation();
  w.U32(static_cast<uint32_t>(perm.size()));
  for (int s : perm) w.U32(static_cast<uint32_t>(s));
  w.EndSection(cookie);
}

Status PatternJoiner::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kJoiner);
  const uint32_t num_buffers = r.U32();
  if (r.ok() && num_buffers != buffers_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: joiner symbol count mismatch (pattern changed?)"));
    return r.status();
  }
  for (SituationBuffer& b : buffers_) {
    Status status = b.Restore(r);
    if (!status.ok()) return status;
  }
  shed_situations_ = r.I64();
  lost_match_bound_ = r.I64();
  const uint32_t perm_size = r.U32();
  std::vector<int> perm;
  std::vector<bool> seen(buffers_.size(), false);
  for (uint32_t i = 0; i < perm_size && r.ok(); ++i) {
    const uint32_t s = r.U32();
    if (s >= buffers_.size() || seen[s]) {
      r.Fail(Status::ParseError(
          "checkpoint: evaluation order is not a permutation"));
      return r.status();
    }
    seen[s] = true;
    perm.push_back(static_cast<int>(s));
  }
  Status status = r.EndSection(end);
  if (!status.ok()) return status;
  if (perm.size() == buffers_.size()) {
    order_ = EvaluationOrder::Build(*pattern_, perm);
  }
  return Status::OK();
}

void PatternJoiner::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  shed_situations_ctr_ = registry->GetCounter("robust.shed_situations");
  lost_match_bound_ctr_ =
      registry->GetCounter("robust.lost_match_upper_bound");
  probes_ctr_ = registry->GetCounter("matcher.probes");
  range_queries_ctr_ = registry->GetCounter("matcher.range_queries");
  range_query_hits_ctr_ = registry->GetCounter("matcher.range_query_hits");
  partial_configs_ctr_ = registry->GetCounter("matcher.partial_configs");
  full_matches_ctr_ = registry->GetCounter("matcher.full_matches");
  window_rejects_ctr_ = registry->GetCounter("matcher.window_rejects");
}

size_t PatternJoiner::BufferedCount() const {
  size_t total = 0;
  for (const SituationBuffer& b : buffers_) total += b.size();
  return total;
}

void PatternJoiner::EnforceCap(int symbol) {
  if (situation_cap_ == 0) return;
  const size_t cap = situation_cap_;
  SituationBuffer& buf = buffers_[symbol];
  if (buf.size() <= cap) return;

  // Upper bound on the matches enumerable right now that each evicted
  // situation could still complete: one candidate per other symbol
  // already buffered (future arrivals are not counted — the bound
  // covers the currently-enumerable loss only).
  int64_t per_evicted = 1;
  for (size_t j = 0; j < buffers_.size(); ++j) {
    if (static_cast<int>(j) == symbol) continue;
    per_evicted = SaturatingMul(
        per_evicted,
        std::max<int64_t>(1, static_cast<int64_t>(buffers_[j].size())));
  }

  int64_t evicted = 0;
  while (buf.size() > cap) {
    buf.PopFront();
    ++evicted;
  }
  shed_situations_ += evicted;
  // Accumulate the delta actually applied after saturation, and saturate
  // the counter too: once the bound pins at int64 max, a plain Inc(kMax)
  // per eviction round would wrap the metric while the member stays
  // pinned, and the two would disagree.
  const int64_t before = lost_match_bound_;
  lost_match_bound_ =
      SaturatingAdd(lost_match_bound_, SaturatingMul(evicted, per_evicted));
  if (shed_situations_ctr_ != nullptr) {
    shed_situations_ctr_->Inc(evicted);
    lost_match_bound_ctr_->IncSaturating(lost_match_bound_ - before);
  }
}

void PatternJoiner::Enumerate(std::vector<const Situation*>& working_set,
                              TimePoint now, MatchSink& sink,
                              MatcherStats* stats) {
  if (probes_ctr_ != nullptr) probes_ctr_->Inc();
  const std::vector<EvalStep>& steps = order_.steps();
  if (step_scratch_.size() < steps.size()) step_scratch_.resize(steps.size());
  // The last unbound step hands its candidates to the sink as runs; with
  // every symbol pre-bound, the configuration is a run of one.
  size_t last_unbound = steps.size();
  for (size_t i = steps.size(); i-- > 0;) {
    if (working_set[steps[i].symbol] == nullptr) {
      last_unbound = i;
      break;
    }
  }
  Step(working_set, 0, last_unbound, now, sink, stats);
}

void PatternJoiner::Step(std::vector<const Situation*>& ws, size_t step_index,
                         size_t last_unbound, TimePoint now, MatchSink& sink,
                         MatcherStats* stats) {
  if (step_index == last_unbound) {
    EmitRuns(ws, step_index, now, sink, stats);
    return;
  }
  const EvalStep& step = order_.steps()[step_index];
  if (ws[step.symbol] != nullptr) {
    // The symbol was pre-bound by the caller (the new situation in
    // Algorithm 2, or started situations in Algorithm 4): skip its buffer
    // and verify the applicable constraints directly.
    if (CheckBound(step, ws)) {
      Step(ws, step_index + 1, last_unbound, now, sink, stats);
    }
    return;
  }
  // The per-depth scratch keeps the reference stable across the recursive
  // Step calls below (deeper levels use their own scratch slot).
  const IndexRanges& candidates =
      FindCandidates(step, ws, stats, step_scratch_[step_index]);
  const SituationBuffer& buf = buffers_[step.symbol];
  if (partial_configs_ctr_ != nullptr) {
    partial_configs_ctr_->Inc(
        static_cast<int64_t>(candidates.TotalSize()));
  }
  candidates.ForEach([&](uint32_t idx) {
    ws[step.symbol] = &buf.At(idx);
    Step(ws, step_index + 1, last_unbound, now, sink, stats);
  });
  ws[step.symbol] = nullptr;
}

void PatternJoiner::EmitRuns(std::vector<const Situation*>& ws,
                             size_t step_index, TimePoint now,
                             MatchSink& sink, MatcherStats* stats) {
  const std::vector<EvalStep>& steps = order_.steps();
  const bool varying = step_index < steps.size();
  const IndexRanges* candidates = nullptr;
  if (varying) {
    candidates = &FindCandidates(steps[step_index], ws, stats,
                                 step_scratch_[step_index]);
    if (partial_configs_ctr_ != nullptr) {
      partial_configs_ctr_->Inc(
          static_cast<int64_t>(candidates->TotalSize()));
    }
    if (candidates->empty()) return;
  }
  // The remaining steps are pre-bound. Their constraints with this step's
  // symbol already shaped the candidates (the range queries select
  // exactly the certain ones); the others do not depend on the candidate,
  // so they are checked once per run, with the symbol still unbound.
  for (size_t j = step_index + 1; j < steps.size(); ++j) {
    if (!CheckBound(steps[j], ws)) return;
  }

  // Window: every candidate c ends no later than the bound prefix P's
  // latest end P_te (buffers hold situations finished by `now`, and P
  // holds the trigger, which ends at `now` or is ongoing; the baseline
  // matcher appends in end-timestamp order). So max(te) - min(ts) <= W
  // splits into P_te - P_ts <= W, for the whole run, and
  // c.ts >= P_te - W, a lower bound that clips each candidate range
  // (the buffer is sorted by start). Ongoing situations extend at least
  // to the current time; the match is emitted early under the documented
  // low-latency window semantics.
  TimePoint p_ts = kTimeMax;
  TimePoint p_te = kTimeMin;
  for (const Situation* s : ws) {
    if (s == nullptr) continue;  // the candidate's slot
    p_ts = std::min(p_ts, s->ts);
    p_te = std::max(p_te, s->ongoing() ? now : s->te);
  }
  const uint64_t total = varying ? candidates->TotalSize() : 1;
  uint64_t emitted = 0;
  if (SaturatingSub(p_te, p_ts) <= window_) {
    if (!varying) {
      sink.OnRun(MatchRun{ws, -1, nullptr, 0, 1, now});
      emitted = 1;
    } else {
      const int symbol = steps[step_index].symbol;
      const SituationBuffer& buf = buffers_[symbol];
      const IndexRange clip =
          buf.FindTs(TimeRange::AtLeast(SaturatingSub(p_te, window_)));
      MatchRun run{ws, symbol, &buf, 0, 0, now};
      for (const IndexRange& range : candidates->ranges()) {
        const IndexRange r = range.Intersect(clip);
        if (r.empty()) continue;
        assert(buf.At(r.hi - 1).te <= p_te);
        run.lo = r.lo;
        run.hi = r.hi;
        sink.OnRun(run);
        emitted += run.size();
      }
      ws[symbol] = nullptr;
    }
  }
  if (full_matches_ctr_ != nullptr) {
    full_matches_ctr_->Inc(static_cast<int64_t>(emitted));
    window_rejects_ctr_->Inc(static_cast<int64_t>(total - emitted));
  }
}

bool PatternJoiner::CheckBound(const EvalStep& step,
                               const std::vector<const Situation*>& ws) const {
  const Situation& self = *ws[step.symbol];
  for (const EvalStep::Touching& t : step.constraints) {
    const Situation* other = ws[t.other_symbol];
    if (other == nullptr) continue;  // checked at the other symbol's step
    const TemporalConstraint& c = pattern_->constraints()[t.constraint];
    const Situation& sa = t.symbol_is_a ? self : *other;
    const Situation& sb = t.symbol_is_a ? *other : self;
    if (c.Check(sa, sb) != Certainty::kCertain) return false;
  }
  return true;
}

const IndexRanges& PatternJoiner::FindCandidatesNaive(
    const EvalStep& step, const std::vector<const Situation*>& ws,
    StepScratch& scratch) const {
  // Equation 1: scan the whole buffer and evaluate every applicable
  // constraint per candidate.
  const SituationBuffer& buf = buffers_[step.symbol];
  IndexRanges& result = scratch.result;
  result.Clear();
  for (uint32_t i = 0; i < buf.size(); ++i) {
    const Situation& candidate = buf.At(i);
    bool ok = true;
    for (const EvalStep::Touching& t : step.constraints) {
      const Situation* other = ws[t.other_symbol];
      if (other == nullptr) continue;
      const TemporalConstraint& c = pattern_->constraints()[t.constraint];
      const Situation& sa = t.symbol_is_a ? candidate : *other;
      const Situation& sb = t.symbol_is_a ? *other : candidate;
      if (c.Check(sa, sb) != Certainty::kCertain) {
        ok = false;
        break;
      }
    }
    if (ok) result.Add(IndexRange{i, i + 1});
  }
  return result;
}

const IndexRanges& PatternJoiner::FindCandidates(
    const EvalStep& step, const std::vector<const Situation*>& ws,
    MatcherStats* stats, StepScratch& scratch) {
  const SituationBuffer& buf = buffers_[step.symbol];
  if (naive_scan_ && !buf.empty()) {
    return FindCandidatesNaive(step, ws, scratch);
  }
  IndexRanges& result = scratch.result;
  result.Clear();
  if (buf.empty()) return result;

  bool first = true;
  IndexRanges& per_constraint = scratch.per_constraint;
  for (const EvalStep::Touching& t : step.constraints) {
    const Situation* other = ws[t.other_symbol];
    if (other == nullptr) continue;
    const TemporalConstraint& c = pattern_->constraints()[t.constraint];

    // Union of the index ranges of the constraint's relations. The
    // candidate plays role A iff this step's symbol is the constraint's A.
    per_constraint.Clear();
    c.relations.ForEach([&](Relation r) {
      const auto bounds =
          BoundsForCounterpart(r, *other, /*fixed_is_a=*/!t.symbol_is_a);
      if (!bounds) return;
      per_constraint.Add(buf.Find(*bounds));
    });

    if (range_queries_ctr_ != nullptr) {
      range_queries_ctr_->Inc();
      range_query_hits_ctr_->Inc(
          static_cast<int64_t>(per_constraint.TotalSize()));
    }
    if (stats != nullptr) {
      stats->UpdateSelectivity(
          t.constraint, static_cast<double>(per_constraint.TotalSize()) /
                            static_cast<double>(buf.size()));
    }
    if (first) {
      result.Swap(per_constraint);
      first = false;
    } else {
      result.IntersectInto(per_constraint, &scratch.tmp);
      result.Swap(scratch.tmp);
    }
    if (result.empty()) return result;
  }
  if (first) {
    // No applicable constraint: cross product over the whole buffer
    // (only reachable for disconnected patterns).
    result.Add(IndexRange{0, static_cast<uint32_t>(buf.size())});
  }
  return result;
}

}  // namespace tpstream
