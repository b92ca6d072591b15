#include "derive/deriver.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

namespace tpstream {

Deriver::Deriver(std::vector<SituationDefinition> definitions,
                 bool announce_starts, obs::MetricsRegistry* metrics,
                 DeriveOptions options)
    : defs_(std::move(definitions)),
      announce_starts_(announce_starts),
      options_(options) {
  slots_.reserve(defs_.size());
  for (const SituationDefinition& def : defs_) {
    slots_.emplace_back(def.aggregates);
  }
  // One event starts and finishes at most one situation per definition,
  // and the payloads recycled from one update refill at most the next;
  // sized once, these vectors never grow on the per-event path.
  update_.started.reserve(defs_.size());
  update_.finished.reserve(defs_.size());
  spare_payloads_.Reserve(2 * defs_.size());
  def_words_ = (defs_.size() + 63) / 64;
  active_mask_.assign(def_words_, 0);
  satisfied_.assign(def_words_, 0);
  if (options_.compiled_predicates) {
    if (!options_.simd.empty()) {
      simd::SimdLevel level;
      if (simd::ParseSimdLevel(options_.simd, &level)) {
        exec_scratch_.simd = simd::Effective(level);
      }
    }
    CompilePredicates();
  }
  if (metrics != nullptr) {
    events_ctr_ = metrics->GetCounter("deriver.events");
    predicate_evals_ctr_ = metrics->GetCounter("deriver.predicate_evals");
    opened_ctr_ = metrics->GetCounter("deriver.situations_opened");
    announced_ctr_ = metrics->GetCounter("deriver.situations_announced");
    finished_ctr_ = metrics->GetCounter("deriver.situations_finished");
    discarded_ctr_ = metrics->GetCounter("deriver.situations_discarded");
    if (options_.compiled_predicates) {
      metrics->GetGauge("deriver.compiled_programs")
          ->Set(static_cast<double>(programs_.size()));
      metrics->GetCounter("deriver.program_cache_hits")
          ->Inc(program_cache_hits_);
    }
  }
}

void Deriver::CompilePredicates() {
  // One program per distinct predicate fingerprint: definitions that
  // differ only in aggregates/duration (or symbol name) share code, the
  // same keying the multi-query engine uses to share whole definitions.
  std::unordered_map<std::string, int> by_fingerprint;
  program_of_def_.assign(defs_.size(), -1);
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].predicate == nullptr) continue;
    const std::string fp = ExprFingerprint(*defs_[i].predicate);
    auto [it, inserted] =
        by_fingerprint.emplace(fp, static_cast<int>(programs_.size()));
    if (inserted) {
      auto compiled = CompilePredicate(*defs_[i].predicate);
      if (!compiled.ok()) {
        // Semantics over speed: this definition keeps the interpreter.
        by_fingerprint.erase(it);
        continue;
      }
      programs_.push_back(std::move(compiled).value());
      const auto& fields = programs_.back()->referenced_fields();
      batch_fields_.insert(batch_fields_.end(), fields.begin(),
                           fields.end());
    } else {
      ++program_cache_hits_;
    }
    program_of_def_[i] = it->second;
  }
  std::sort(batch_fields_.begin(), batch_fields_.end());
  batch_fields_.erase(
      std::unique(batch_fields_.begin(), batch_fields_.end()),
      batch_fields_.end());
  prog_words_ = (programs_.size() + 63) / 64;
  def_mask_of_prog_.assign(programs_.size() * def_words_, 0);
  for (size_t i = 0; i < defs_.size(); ++i) {
    const int p = program_of_def_[i];
    if (p < 0) {
      interpreted_defs_.push_back(static_cast<int>(i));
    } else {
      def_mask_of_prog_[p * def_words_ + i / 64] |= uint64_t{1} << (i % 64);
    }
  }
}

namespace {

// In-place 64x64 bit-matrix transpose about the anti-diagonal
// (Hacker's Delight 7-3): element (row i, bit b) moves to
// (row 63-b, bit 63-i). PrepareBatch compensates by reversing the row
// order on the way in and out, which nets the plain transpose.
void AntiTranspose64(uint64_t m[64]) {
  uint64_t mask = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
  }
}

}  // namespace

void Deriver::PrepareBatch(std::span<const Event> events) {
  batch_base_ = nullptr;
  if (!options_.compiled_predicates || events.empty() ||
      programs_.empty()) {
    return;
  }
  batch_.Assign(events, batch_fields_);
  batch_n_ = events.size();
  batch_words_ = (batch_n_ + 63) / 64;
  batch_bits_.resize(programs_.size() * batch_words_);
  for (size_t p = 0; p < programs_.size(); ++p) {
    programs_[p]->RunPredicateColumnBits(
        batch_, &exec_scratch_, batch_bits_.data() + p * batch_words_);
  }
  // Transpose the program-major bitmaps into one program mask per
  // event: a 64x64 bit transpose per (event word, 64-program block).
  // Rows past batch_n_ carry zero bits (the packer zeroes the tail), so
  // the over-sized final block is harmless.
  batch_row_mask_.resize(batch_words_ * 64 * prog_words_);
  const size_t nprogs = programs_.size();
  for (size_t pw = 0; pw < prog_words_; ++pw) {
    for (size_t w = 0; w < batch_words_; ++w) {
      uint64_t blk[64];
      for (size_t p = 0; p < 64; ++p) {
        const size_t prog = pw * 64 + p;
        blk[63 - p] =
            prog < nprogs ? batch_bits_[prog * batch_words_ + w] : 0;
      }
      AntiTranspose64(blk);
      uint64_t* out = batch_row_mask_.data() + w * 64 * prog_words_ + pw;
      for (size_t r = 0; r < 64; ++r) out[r * prog_words_] = blk[63 - r];
    }
  }
  batch_base_ = events.data();
  batch_cursor_ = 0;
}

bool Deriver::EvalCompiled(int def, const Event& event) {
  const int p = program_of_def_[def];
  if (p < 0) return EvalPredicate(*defs_[def].predicate, event.payload);
  return programs_[p]->RunPredicate(event.payload, &exec_scratch_);
}

void Deriver::ApplyDef(int i, const Event& event, bool satisfied) {
  const SituationDefinition& def = defs_[i];
  Slot& slot = slots_[i];
  if (satisfied) {
    if (!slot.active) {
      slot.active = true;
      slot.announced = false;
      slot.ts = event.t;
      slot.aggs.Init(event.payload);
      SetActive(i, true);
      if (opened_ctr_ != nullptr) opened_ctr_->Inc();
    } else {
      slot.aggs.Update(event.payload);
    }
    // Low-latency announcement once the eventual duration is guaranteed
    // to reach the minimum (the end timestamp will be > event.t).
    if (announce_starts_ && !slot.announced && !def.duration.has_max() &&
        event.t + 1 - slot.ts >= def.duration.min) {
      slot.announced = true;
      if (announced_ctr_ != nullptr) announced_ctr_->Inc();
      update_.started.push_back(SymbolSituation{
          i, Situation(TakePayload(slot), slot.ts, kTimeUnknown)});
    }
  } else if (slot.active) {
    // First non-satisfying event fixes the end timestamp (half-open).
    const TimePoint te = event.t;
    if (def.duration.Contains(te - slot.ts)) {
      if (finished_ctr_ != nullptr) finished_ctr_->Inc();
      update_.finished.push_back(
          SymbolSituation{i, Situation(TakePayload(slot), slot.ts, te)});
    } else if (discarded_ctr_ != nullptr) {
      discarded_ctr_->Inc();
    }
    slot.active = false;
    slot.announced = false;
    SetActive(i, false);
  }
}

Tuple Deriver::TakePayload(const Slot& slot) {
  if (slot.aggs.size() == 0) return Tuple();
  Tuple payload = spare_payloads_.Take();
  slot.aggs.SnapshotInto(&payload);
  return payload;
}

Deriver::Update& Deriver::Process(const Event& event) {
  if (!update_.empty()) {  // most events change nothing
    spare_payloads_.Reclaim(&update_.started);
    spare_payloads_.Reclaim(&update_.finished);
  }
  if (events_ctr_ != nullptr) {
    events_ctr_->Inc();
    predicate_evals_ctr_->Inc(static_cast<int64_t>(defs_.size()));
  }

  if (batch_base_ != nullptr &&
      (batch_cursor_ >= batch_n_ || &event != batch_base_ + batch_cursor_)) {
    // The caller deviated from the announced batch (or consumed it);
    // drop the precomputed rows and evaluate per tuple.
    batch_base_ = nullptr;
  }

  // Sparse path: the transposed bitmap hands us this event's satisfied-
  // program mask; OR-ing the definition masks of its programs, folding in the
  // definitions whose predicate kept the interpreter, and OR-ing the
  // open slots yields exactly the definitions with any work to do. The
  // walk visits only those, in ascending definition order (the dense
  // loop's started/finished emission order); on a quiet event it runs
  // zero iterations, so a definition whose predicate rarely flips costs
  // nothing per event.
  if (batch_base_ != nullptr) {
    uint64_t* sat = satisfied_.data();
    std::fill(sat, sat + def_words_, 0);
    const uint64_t* row =
        batch_row_mask_.data() + batch_cursor_ * prog_words_;
    for (size_t pw = 0; pw < prog_words_; ++pw) {
      for (uint64_t pm = row[pw]; pm != 0; pm &= pm - 1) {
        const uint64_t* defs =
            def_mask_of_prog_.data() +
            (pw * 64 + std::countr_zero(pm)) * def_words_;
        for (size_t w = 0; w < def_words_; ++w) sat[w] |= defs[w];
      }
    }
    for (const int i : interpreted_defs_) {
      if (EvalPredicate(*defs_[i].predicate, event.payload)) {
        sat[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
    for (size_t w = 0; w < def_words_; ++w) {
      for (uint64_t work = sat[w] | active_mask_[w]; work != 0;
           work &= work - 1) {
        const int bit = std::countr_zero(work);
        ApplyDef(static_cast<int>(w * 64) + bit, event,
                 (sat[w] >> bit & 1) != 0);
      }
    }
    ++batch_cursor_;
    return update_;
  }

  const bool compiled = options_.compiled_predicates;
  for (int i = 0; i < static_cast<int>(defs_.size()); ++i) {
    ApplyDef(i, event,
             compiled ? EvalCompiled(i, event)
                      : EvalPredicate(*defs_[i].predicate, event.payload));
  }
  return update_;
}

void Deriver::ClearTransient() {
  update_.started.clear();
  update_.finished.clear();
  batch_base_ = nullptr;
  batch_n_ = 0;
  batch_words_ = 0;
  batch_cursor_ = 0;
}

void Deriver::Reset() {
  for (Slot& slot : slots_) {
    slot.active = false;
    slot.announced = false;
    slot.ts = 0;
  }
  ClearTransient();
  std::fill(active_mask_.begin(), active_mask_.end(), 0);
}

void Deriver::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kDeriver);
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    w.Bool(slot.active);
    w.Bool(slot.announced);
    w.I64(slot.ts);
    slot.aggs.Checkpoint(w);
  }
  w.EndSection(cookie);
}

Status Deriver::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kDeriver);
  const uint32_t n = r.U32();
  if (r.ok() && n != slots_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: definition count mismatch (query changed?)"));
    return r.status();
  }
  for (Slot& slot : slots_) {
    slot.active = r.Bool();
    slot.announced = r.Bool();
    slot.ts = r.I64();
    Status status = slot.aggs.Restore(r);
    if (!status.ok()) return status;
  }
  ClearTransient();
  for (size_t i = 0; i < slots_.size(); ++i) {
    SetActive(static_cast<int>(i), slots_[i].active);
  }
  return r.EndSection(end);
}

std::vector<DurationConstraint> Deriver::durations() const {
  std::vector<DurationConstraint> out;
  out.reserve(defs_.size());
  for (const SituationDefinition& def : defs_) {
    out.push_back(def.duration);
  }
  return out;
}

}  // namespace tpstream
