#include "matcher/matcher.h"

#include "robust/saturating.h"

namespace tpstream {

Matcher::Matcher(TemporalPattern pattern, Duration window, MatchSink* sink,
                 double stats_alpha)
    : pattern_(std::move(pattern)),
      window_(window),
      sink_(sink),
      joiner_(&pattern_, window),
      stats_(pattern_, stats_alpha),
      working_set_(pattern_.num_symbols(), nullptr) {}

void Matcher::SetEvaluationOrder(const std::vector<int>& permutation) {
  joiner_.SetOrder(EvaluationOrder::Build(pattern_, permutation));
}

void Matcher::Reset() {
  joiner_.Reset();
  stats_ = MatcherStats(pattern_, stats_.alpha());
}

void Matcher::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kBaselineMatcher);
  joiner_.Checkpoint(w);
  stats_.Checkpoint(w);
  w.EndSection(cookie);
}

Status Matcher::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kBaselineMatcher);
  Status status = joiner_.Restore(r);
  if (!status.ok()) return status;
  status = stats_.Restore(r);
  if (!status.ok()) return status;
  return r.EndSection(end);
}

void Matcher::Update(const std::vector<SymbolSituation>& finished,
                     TimePoint now) {
  scratch_finished_.assign(finished.begin(), finished.end());
  Consume(scratch_finished_, now);
}

void Matcher::Consume(std::vector<SymbolSituation>& finished, TimePoint now) {
  joiner_.PurgeBefore(robust::SaturatingSub(now, window_));

  for (SymbolSituation& ss : finished) {
    SituationBuffer& buf = joiner_.buffer(ss.symbol);
    buf.Append(std::move(ss.situation));
    // Overload cap: evict the oldest situations before enumerating (the
    // appended one is the newest and always survives — cap >= 1).
    joiner_.EnforceCap(ss.symbol);
    // Force the new situation into every produced configuration: this
    // yields incremental, exactly-once results (Algorithm 2).
    working_set_.assign(working_set_.size(), nullptr);
    working_set_[ss.symbol] = &buf.Back();
    joiner_.Enumerate(working_set_, now, *sink_, &stats_);
  }

  for (int s = 0; s < pattern_.num_symbols(); ++s) {
    stats_.UpdateBufferSize(s, static_cast<double>(joiner_.buffer(s).size()));
  }
}

}  // namespace tpstream
