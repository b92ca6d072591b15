#ifndef TPSTREAM_DERIVE_DERIVER_H_
#define TPSTREAM_DERIVE_DERIVER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/situation.h"
#include "common/status.h"
#include "derive/definition.h"
#include "expr/bytecode.h"
#include "obs/metrics.h"

namespace tpstream {

/// Tuning knobs for the deriver's predicate-evaluation stage.
struct DeriveOptions {
  /// Compile DEFINE predicates to flat register bytecode (expr/bytecode.h)
  /// instead of interpreting the Expression tree per event, and evaluate
  /// them columnarly over event batches when the caller announces one via
  /// PrepareBatch(). Off by default: the tree interpreter remains the
  /// semantic oracle (the two are differentially fuzzed against each
  /// other; see docs/architecture.md, "Compiled predicate path").
  /// Observable behaviour — situations, counters, metrics — is identical
  /// either way; a predicate that fails to compile silently keeps the
  /// interpreter.
  bool compiled_predicates = false;

  /// SIMD tier for columnar batch evaluation: "off", "sse2", "avx2" or
  /// "native" (best the machine supports). Empty defers to the
  /// TPSTREAM_SIMD environment variable, then the machine default.
  /// Requests above the machine's capability clamp down; unparsable
  /// values fall back to the default. Only meaningful with
  /// `compiled_predicates` — result bits are identical at every level.
  std::string simd;
};

/// The deriver component (Algorithm 1): consumes a point event stream and
/// incrementally derives one situation stream per definition.
///
/// In low-latency mode (`announce_starts`), a situation is additionally
/// announced as *started* as soon as its eventual duration is guaranteed
/// to satisfy the minimum duration constraint (Section 5.3.2):
///  - no constraints: announced with its first event;
///  - minimum only: announcement deferred to the deferred start ts̄, the
///    first event at which `t + 1 - ts >= min` holds (event timestamps are
///    strictly increasing, so the end timestamp will be at least t + 1);
///  - any maximum: never announced; such situations take part in matching
///    only once finished (and the constraint is validated then).
class Deriver {
 public:
  /// Situations started / finished while processing one event.
  struct Update {
    std::vector<SymbolSituation> started;
    std::vector<SymbolSituation> finished;

    bool empty() const { return started.empty() && finished.empty(); }
  };

  /// `metrics`, when non-null, receives the `deriver.*` counters (events,
  /// predicate evaluations, situations opened / announced / finished /
  /// discarded). Must outlive the deriver.
  ///
  /// With `options.compiled_predicates`, each distinct predicate (keyed
  /// by its structural fingerprint, expr/expression.h) is compiled once
  /// and shared across definitions; `num_compiled_programs()` /
  /// `program_cache_hits()` and the `deriver.compiled_programs` /
  /// `deriver.program_cache_hits` metrics pin the sharing.
  Deriver(std::vector<SituationDefinition> definitions, bool announce_starts,
          obs::MetricsRegistry* metrics = nullptr,
          DeriveOptions options = {});

  /// Processes one event; events must arrive in strictly increasing
  /// timestamp order. The returned reference is valid until the next call.
  /// The reference is mutable so the operator hot path can *move* the
  /// started/finished situations straight into the matcher buffers; the
  /// scratch vectors are cleared on the next Process() regardless.
  Update& Process(const Event& event);

  /// Announces that the next `events.size()` Process() calls will walk
  /// exactly the elements of `events` in order (the PushBatch contract).
  /// In compiled mode this pre-evaluates every predicate columnarly over
  /// the whole batch — one pass per distinct program with its code and
  /// the referenced field columns hot in cache — and Process() then
  /// consumes the precomputed rows. A no-op in interpreter mode, and
  /// never required for correctness: if the caller pushes different
  /// events instead, Process() detects the mismatch and falls back to
  /// per-tuple evaluation. `events` must stay alive and unmodified until
  /// the batch is consumed.
  void PrepareBatch(std::span<const Event> events);

  /// True if `symbol` has an announced, still ongoing situation.
  bool IsOngoing(int symbol) const {
    return slots_[symbol].active && slots_[symbol].announced;
  }

  /// Current value of aggregate `i` of `symbol`'s ongoing situation,
  /// read without building a snapshot tuple (RETURN projection takes one
  /// value at a time). Null when `i` is out of range. Only valid while
  /// IsOngoing(symbol).
  Value OngoingAggregate(int symbol, int i) const {
    return slots_[symbol].aggs.Result(i);
  }

  int num_definitions() const { return static_cast<int>(defs_.size()); }
  const SituationDefinition& definition(int i) const { return defs_[i]; }

  /// Duration constraints in symbol order (input to DetectionAnalysis).
  std::vector<DurationConstraint> durations() const;

  /// Returns the deriver to its freshly-constructed stream state: every
  /// open situation slot is closed (without emitting) and any announced
  /// batch is forgotten. Definitions and compiled programs are
  /// configuration and survive.
  void Reset();

  /// Serializes the per-definition open-situation slots (active flag,
  /// announcement flag, start timestamp, running aggregates). Prepared
  /// batch state is transient and never checkpointed — a checkpoint is
  /// only taken between events, where no batch is in flight.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a deriver with the same definitions.
  /// On error the deriver must be Reset() or discarded before further
  /// use.
  Status Restore(ckpt::Reader& r);

  /// Compiled-mode introspection (0 in interpreter mode): distinct
  /// bytecode programs, and definitions that reused a sibling's program
  /// because their predicate fingerprints matched.
  int num_compiled_programs() const {
    return static_cast<int>(programs_.size());
  }
  int64_t program_cache_hits() const { return program_cache_hits_; }
  bool compiled() const { return options_.compiled_predicates; }

  /// Active SIMD tier name for columnar evaluation ("off" when not in
  /// compiled mode, else "off"/"sse2"/"avx2" after clamping the request
  /// to machine capability).
  const char* simd_level() const {
    return options_.compiled_predicates
               ? simd::SimdLevelName(simd::Effective(exec_scratch_.simd))
               : "off";
  }

 private:
  struct Slot {
    bool active = false;
    bool announced = false;
    TimePoint ts = 0;
    AggregatorSet aggs;

    explicit Slot(std::vector<AggregateSpec> specs)
        : aggs(std::move(specs)) {}
  };

  void CompilePredicates();
  bool EvalCompiled(int def, const Event& event);
  void ApplyDef(int i, const Event& event, bool satisfied);
  void SetActive(int i, bool active) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    if (active) {
      active_mask_[i >> 6] |= bit;
    } else {
      active_mask_[i >> 6] &= ~bit;
    }
  }
  /// Current aggregates of `slot` as a situation payload, built in a
  /// recycled tuple when one is spare.
  Tuple TakePayload(const Slot& slot);
  /// Clears the update and forgets any announced batch (Reset/Restore).
  void ClearTransient();

  std::vector<SituationDefinition> defs_;
  std::vector<Slot> slots_;
  bool announce_starts_;
  DeriveOptions options_;
  Update update_;
  // Payload tuples handed back by the consumer: the matchers swap a
  // retired payload into every situation they take (see
  // SituationBuffer::Append), so aggregate snapshots reuse storage and
  // steady-state derivation does not allocate.
  PayloadPool spare_payloads_;

  // Compiled-predicate state (empty in interpreter mode). Definitions
  // with fingerprint-equal predicates share one program: program_of_def_
  // maps definition -> index into programs_; -1 falls back to the
  // interpreter for that definition (listed in interpreted_defs_).
  std::vector<std::shared_ptr<const BytecodeProgram>> programs_;
  std::vector<int> program_of_def_;
  std::vector<int> interpreted_defs_;
  std::vector<int> batch_fields_;  // union of referenced fields, ascending
  int64_t program_cache_hits_ = 0;
  ExecScratch exec_scratch_;

  // Definition bitsets are def_words_ = ceil(defs / 64) words, bit
  // `i % 64` of word `i / 64` standing for definition i; program masks
  // are prog_words_ = ceil(programs / 64) words. active_mask_ mirrors
  // slot.active for every definition. Row p of def_mask_of_prog_
  // (def_words_ words from p * def_words_) is the set of definitions
  // sharing program p.
  size_t def_words_ = 0;
  size_t prog_words_ = 0;
  std::vector<uint64_t> def_mask_of_prog_;
  std::vector<uint64_t> active_mask_;
  std::vector<uint64_t> satisfied_;  // per-event scratch, def_words_

  // Prepared-batch state, valid while the caller walks the announced
  // span in order (checked by address). batch_bits_ holds the program-
  // major selection bitmaps: bit `row % 64` of
  // batch_bits_[prog * batch_words_ + row / 64] is prog's predicate over
  // batch event `row`. PrepareBatch transposes them into batch_row_mask_,
  // one prog_words_-word program mask per event; Process() then walks
  // only the set bits of (satisfied | active): a clear bit is a
  // definition that can neither open, extend, nor close a situation on
  // this event.
  ColumnarBatch batch_;
  std::vector<uint64_t> batch_bits_;
  std::vector<uint64_t> batch_row_mask_;
  const Event* batch_base_ = nullptr;
  size_t batch_n_ = 0;
  size_t batch_words_ = 0;
  size_t batch_cursor_ = 0;

  // Observability handles (null when metrics are disabled).
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* predicate_evals_ctr_ = nullptr;
  obs::Counter* opened_ctr_ = nullptr;
  obs::Counter* announced_ctr_ = nullptr;
  obs::Counter* finished_ctr_ = nullptr;
  obs::Counter* discarded_ctr_ = nullptr;
};

}  // namespace tpstream

#endif  // TPSTREAM_DERIVE_DERIVER_H_
