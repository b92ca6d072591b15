#include "matcher/low_latency_matcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "robust/saturating.h"

namespace tpstream {

namespace {

// Fingerprint of a temporal configuration. Situations within one stream
// have unique start timestamps, so the sequence of (symbol, ts) pairs
// identifies a configuration; FNV-1a over the start timestamps suffices.
uint64_t Fingerprint(const Match& match) {
  uint64_t h = 1469598103934665603ull;
  for (const Situation* s : match.situations) {
    uint64_t x = static_cast<uint64_t>(s->ts);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

LowLatencyMatcher::LowLatencyMatcher(TemporalPattern pattern,
                                     DetectionAnalysis analysis,
                                     Duration window, MatchSink* sink,
                                     double stats_alpha)
    : pattern_(std::move(pattern)),
      analysis_(std::move(analysis)),
      window_(window),
      sink_(sink),
      joiner_(&pattern_, window),
      stats_(pattern_, stats_alpha),
      started_(pattern_.num_symbols()),
      working_set_(pattern_.num_symbols(), nullptr) {}

void LowLatencyMatcher::SetEvaluationOrder(
    const std::vector<int>& permutation) {
  joiner_.SetOrder(EvaluationOrder::Build(pattern_, permutation));
}

void LowLatencyMatcher::Reset() {
  joiner_.Reset();
  for (StartedSlot& slot : started_) slot.active = false;
  // The exactly-once guard MUST be dropped with the rest of the stream
  // state: a fingerprint left over from before the reset matches the
  // configuration a replayed stream produces again and would suppress its
  // (legitimate) emission.
  emitted_.clear();
  emitted_sweep_threshold_ = 1024;
  shed_trigger_candidates_ = 0;
  stats_ = MatcherStats(pattern_, stats_.alpha());
}

void LowLatencyMatcher::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kLowLatencyMatcher);
  joiner_.Checkpoint(w);
  stats_.Checkpoint(w);
  w.U32(static_cast<uint32_t>(started_.size()));
  for (const StartedSlot& slot : started_) {
    w.Bool(slot.active);
    if (slot.active) w.WriteSituation(slot.situation);
  }
  // The fingerprint table is serialized in sorted order so that two
  // checkpoints of identical state are byte-identical (the
  // checkpoint-of-restore determinism property tested in
  // checkpoint_test.cc); unordered_map iteration order is not stable
  // across processes.
  std::vector<std::pair<uint64_t, TimePoint>> entries(emitted_.begin(),
                                                      emitted_.end());
  std::sort(entries.begin(), entries.end());
  w.U64(entries.size());
  for (const auto& [fp, min_ts] : entries) {
    w.U64(fp);
    w.I64(min_ts);
  }
  w.U64(emitted_sweep_threshold_);
  w.I64(shed_trigger_candidates_);
  w.EndSection(cookie);
}

Status LowLatencyMatcher::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kLowLatencyMatcher);
  Status status = joiner_.Restore(r);
  if (!status.ok()) return status;
  status = stats_.Restore(r);
  if (!status.ok()) return status;
  const uint32_t num_slots = r.U32();
  if (r.ok() && num_slots != started_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: started-slot count mismatch (pattern changed?)"));
    return r.status();
  }
  for (StartedSlot& slot : started_) {
    slot.active = r.Bool();
    if (slot.active) slot.situation = r.ReadSituation();
  }
  const uint64_t num_emitted = r.U64();
  if (num_emitted > r.remaining() / 16) {
    r.Fail(Status::ParseError(
        "checkpoint: fingerprint table size exceeds input"));
    return r.status();
  }
  emitted_.clear();
  emitted_.reserve(num_emitted);
  for (uint64_t i = 0; i < num_emitted && r.ok(); ++i) {
    const uint64_t fp = r.U64();
    const TimePoint min_ts = r.I64();
    emitted_.emplace(fp, min_ts);
  }
  emitted_sweep_threshold_ = r.U64();
  shed_trigger_candidates_ = r.I64();
  return r.EndSection(end);
}

void LowLatencyMatcher::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  joiner_.EnableMetrics(registry);
  triggers_ctr_ = registry->GetCounter("matcher.triggers");
  dedup_hits_ctr_ = registry->GetCounter("matcher.dedup_hits");
  shed_trigger_ctr_ = registry->GetCounter("robust.shed_trigger_candidates");
}

void LowLatencyMatcher::Update(const std::vector<SymbolSituation>& started,
                               const std::vector<SymbolSituation>& finished,
                               TimePoint now) {
  scratch_started_.assign(started.begin(), started.end());
  scratch_finished_.assign(finished.begin(), finished.end());
  Consume(scratch_started_, scratch_finished_, now);
}

void LowLatencyMatcher::Consume(std::vector<SymbolSituation>& started,
                                std::vector<SymbolSituation>& finished,
                                TimePoint now) {
  const TimePoint horizon = robust::SaturatingSub(now, window_);
  joiner_.PurgeBefore(horizon);

  // Migrate every situation finishing now before running end triggers, so
  // that simultaneously ending counterparts (equals / finishes /
  // finished-by) are visible in the regular buffers.
  for (SymbolSituation& ss : finished) {
    started_[ss.symbol].active = false;
    joiner_.buffer(ss.symbol).Append(std::move(ss.situation));
    // Overload cap: evict oldest situations; the one just appended is the
    // newest and always survives (cap >= 1), so Back() below stays valid.
    joiner_.EnforceCap(ss.symbol);
  }
  for (const SymbolSituation& ss : finished) {
    if (!analysis_.match_on_end(ss.symbol)) continue;
    // A configuration completed purely by already-finished situations can
    // only have its latest endpoint here if some relation ends
    // simultaneously with this one; otherwise an earlier trigger covered
    // it. Symbols excluded while ongoing defer all their triggers to the
    // end, so for them the bare combination is always admissible.
    const bool allow_bare = analysis_.has_simultaneous_end(ss.symbol) ||
                            analysis_.excluded_while_ongoing(ss.symbol);
    Trigger(ss.symbol, joiner_.buffer(ss.symbol).Back(), allow_bare, now);
  }

  // Start triggers run after end migration: a situation ending at `now`
  // can relate to one starting at `now` only via meets/met-by, which
  // trigger at the *start* of the later situation and find the ended
  // counterpart in its buffer.
  for (SymbolSituation& ss : started) {
    // Swap rather than move-assign: the input element takes the slot's
    // retired payload back to the deriver, which reuses its storage.
    StartedSlot& slot = started_[ss.symbol];
    slot.situation.payload.swap(ss.situation.payload);
    slot.situation.ts = ss.situation.ts;
    slot.situation.te = ss.situation.te;
    slot.active = true;
    if (!analysis_.match_on_start(ss.symbol)) continue;
    Trigger(ss.symbol, slot.situation, /*allow_bare=*/true, now);
  }

  for (int s = 0; s < pattern_.num_symbols(); ++s) {
    stats_.UpdateBufferSize(s, static_cast<double>(joiner_.buffer(s).size()));
  }

  // Amortized sweep of the exactly-once guard.
  if (analysis_.needs_dedup() &&
      emitted_.size() >= emitted_sweep_threshold_) {
    for (auto it = emitted_.begin(); it != emitted_.end();) {
      it = it->second < horizon ? emitted_.erase(it) : std::next(it);
    }
    emitted_sweep_threshold_ =
        std::max<size_t>(1024, emitted_.size() * 2);
  }
}

void LowLatencyMatcher::Trigger(int symbol, const Situation& situation,
                                bool allow_bare, TimePoint now) {
  if (triggers_ctr_ != nullptr) triggers_ctr_->Inc();
  // Candidate pool: started situations that can coexist with the trigger
  // situation in a certain configuration. A related started situation
  // whose constraint with the trigger is not yet certain cannot
  // contribute now (its configurations will be concluded by a later
  // trigger), and impossible ones never will.
  pool_.clear();
  for (int j = 0; j < pattern_.num_symbols(); ++j) {
    if (j == symbol || !started_[j].active) continue;
    const Situation& ongoing = started_[j].situation;
    // Window purge.
    if (ongoing.ts < robust::SaturatingSub(now, window_)) continue;
    const int ci = pattern_.ConstraintIndex(symbol, j);
    if (ci >= 0) {
      const TemporalConstraint& c = pattern_.constraints()[ci];
      const Situation& sa = (c.a == symbol) ? situation : ongoing;
      const Situation& sb = (c.a == symbol) ? ongoing : situation;
      if (c.Check(sa, sb) != Certainty::kCertain) continue;
    }
    pool_.push_back(j);
  }

  // Trigger-pool cap: the subset enumeration below is 2^pool, so a flood
  // of concurrently ongoing situations on a wide pattern can stall a
  // single trigger. Shed the *oldest* started candidates (smallest start
  // timestamp — closest to expiry, least likely to complete), keep the
  // newest, then restore ascending symbol order so the enumeration
  // sequence for surviving candidates is unperturbed.
  if (max_trigger_pool_ > 0 && pool_.size() > max_trigger_pool_) {
    const int64_t excess =
        static_cast<int64_t>(pool_.size() - max_trigger_pool_);
    std::sort(pool_.begin(), pool_.end(), [this](int a, int b) {
      return started_[a].situation.ts > started_[b].situation.ts;
    });
    pool_.resize(max_trigger_pool_);
    std::sort(pool_.begin(), pool_.end());
    shed_trigger_candidates_ += excess;
    if (shed_trigger_ctr_ != nullptr) shed_trigger_ctr_->Inc(excess);
  }

  const size_t subsets = size_t{1} << pool_.size();
  for (size_t mask = 0; mask < subsets; ++mask) {
    if (mask == 0 && !allow_bare) continue;
    working_set_.assign(working_set_.size(), nullptr);
    working_set_[symbol] = &situation;
    for (size_t i = 0; i < pool_.size(); ++i) {
      if (mask & (size_t{1} << i)) {
        working_set_[pool_[i]] = &started_[pool_[i]].situation;
      }
    }
    joiner_.Enumerate(working_set_, now, *this, &stats_);
  }
}

void LowLatencyMatcher::OnRun(const MatchRun& run) {
  // When the detection analysis proves exactly-once delivery, skip the
  // fingerprint table entirely — it dominates per-match cost on
  // match-heavy patterns — and forward the run as it is.
  if (!analysis_.needs_dedup()) {
    sink_->OnRun(run);
    return;
  }
  // Dedup match by match; the first-time matches go on as sub-runs.
  MatchRun fresh = run;
  uint32_t i = run.lo;
  run.ForEach([&](const Match& match) {
    TimePoint min_ts = kTimeMax;
    for (const Situation* s : match.situations) {
      if (s->ts < min_ts) min_ts = s->ts;
    }
    const uint64_t fp = Fingerprint(match);
    if (!emitted_.emplace(fp, min_ts).second) {
      if (dedup_hits_ctr_ != nullptr) dedup_hits_ctr_->Inc();
      if (fresh.lo < i) {
        fresh.hi = i;
        sink_->OnRun(fresh);
      }
      fresh.lo = i + 1;
    }
    ++i;
  });
  if (fresh.lo < run.hi) {
    fresh.hi = run.hi;
    sink_->OnRun(fresh);
  }
}

}  // namespace tpstream
