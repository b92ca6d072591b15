#ifndef TPSTREAM_MULTI_QUERY_GROUP_H_
#define TPSTREAM_MULTI_QUERY_GROUP_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "core/match_engine.h"
#include "core/query_spec.h"
#include "derive/deriver.h"
#include "obs/metrics.h"
#include "optimizer/shared_plan_cache.h"
#include "robust/overload_policy.h"

namespace tpstream {
namespace multi {

/// The multi-query engine: N standing queries against one input schema,
/// each event pushed once.
///
/// Situation derivation is the per-event cost that scales with the query
/// count — every definition evaluates its predicate and folds its
/// aggregates on every event. The group therefore deduplicates
/// definitions by their structural fingerprint (φ predicate, γ aggregate
/// battery, τ duration constraint — see derive/fingerprint.h): one
/// shared Deriver runs each distinct definition once per event and the
/// started/finished situations fan out to every subscribing query's
/// MatchEngine. N identical queries pay one derivation, not N.
///
/// Isolation guarantees (pinned by the differential tests):
///  - every query's matches, RETURN payloads and `matcher.*` /
///    `operator.*` / `robust.*` / `optimizer.*` metrics are byte-for-byte
///    what a standalone TPStreamOperator over the same stream produces;
///  - RETURN/aggregate state is never shared: each engine owns its
///    matcher buffers, statistics and projection state, and situation
///    payloads are copied per subscriber at fan-out;
///  - per-query overload policies apply independently (a flooded query
///    sheds without affecting its siblings);
///  - the shared `deriver.*` counters live in the group registry and
///    count each distinct definition once (equal to ONE standalone
///    operator's deriver counters when all queries are identical).
///
/// Plan sharing: engines consult one SharedPlanCache, a pure memo of the
/// optimizer's subset-DP keyed by (constraint-pair structure, seed mode,
/// exact statistics), so queries overlapping on symbol pairs reuse each
/// other's plans without ever receiving a different plan than they would
/// compute alone.
///
/// Lifecycle: AddQuery() during the registration phase, then Push()
/// events (the first Push seals the group); AddQuery() after sealing is
/// an error. Flush() is an idempotent synchronization point — counters
/// become exact — and the stream may continue afterwards.
///
/// Single-threaded, like TPStreamOperator; wrap in PartitionedTPStream /
/// ParallelTPStream-style sharding for parallelism.
class QueryGroup {
 public:
  struct Options {
    bool low_latency = true;
    bool adaptive = true;
    double stats_alpha = 0.01;
    double reopt_threshold = 0.2;
    int reopt_interval = 64;
    /// Default per-query overload policy (QueryOptions can override).
    robust::OverloadPolicy overload;
    /// Group-level observability: the shared `deriver.*` counters and the
    /// `multi.*` group metrics. Per-query metrics go to
    /// QueryOptions::metrics. Must outlive the group.
    obs::MetricsRegistry* metrics = nullptr;
    /// Cross-query memo of optimizer plans (on by default; never changes
    /// any query's plan, only skips recomputation).
    bool share_plans = true;
    /// Compile the shared deriver's DEFINE predicates to bytecode
    /// (expr/bytecode.h). Programs are keyed by the same structural
    /// fingerprint that deduplicates definitions, so each distinct
    /// predicate across ALL registered queries compiles exactly once
    /// (pinned by num_compiled_programs()). Off by default.
    bool compiled_predicates = false;
    /// SIMD tier for columnar predicate evaluation ("off", "sse2",
    /// "avx2", "native"); empty defers to TPSTREAM_SIMD, then the
    /// machine default. See DeriveOptions::simd.
    std::string simd;
  };

  /// Per-query knobs; everything else comes from the group Options so
  /// that shared derivation stays semantics-preserving.
  struct QueryOptions {
    /// Per-query observability namespace (matcher.*, operator.*,
    /// robust.*, optimizer.*). Distinct registries per query avoid double
    /// counting under sharing. Must outlive the group.
    obs::MetricsRegistry* metrics = nullptr;
    std::optional<robust::OverloadPolicy> overload;
    std::optional<std::vector<int>> fixed_order;
  };

  using OutputCallback = MatchEngine::OutputCallback;

  QueryGroup();
  explicit QueryGroup(Options options);

  QueryGroup(const QueryGroup&) = delete;
  QueryGroup& operator=(const QueryGroup&) = delete;

  /// Registers a compiled query. All queries must share the input schema
  /// (same field names and types). Returns the dense query id used by the
  /// per-query accessors. Error once the group is sealed.
  Result<int> AddQuery(QuerySpec spec, OutputCallback output);
  Result<int> AddQuery(QuerySpec spec, OutputCallback output,
                       QueryOptions query_options);

  /// Finalizes registration: deduplicates definitions, builds the shared
  /// deriver and one MatchEngine per query. Called implicitly by the
  /// first Push(); idempotent.
  void Seal();

  /// Processes one input event for every registered query; timestamps
  /// must be strictly increasing.
  void Push(const Event& event);
  void Push(Event&& event) { Push(static_cast<const Event&>(event)); }
  void PushBatch(std::span<Event> events);
  void PushBatch(std::span<const Event> events);

  /// Synchronization point (lifecycle contract): settles the lazily
  /// advanced per-query event counts and published gauges, making every
  /// per-query counter exact. Idempotent; a no-op before sealing; the
  /// stream may continue afterwards.
  void Flush();

  /// Returns the group to its just-sealed state: the shared deriver's
  /// open situations and every query's engine rewind; the registered
  /// queries, the sealing itself and the observability counters survive.
  /// A no-op before sealing.
  void Reset();

  /// Serializes the sealed group — the shared deriver plus every query's
  /// engine, in registration order — stamped with the event-log offset
  /// (= num_events()). Must be sealed (checkpoints are taken between
  /// Push() calls, and the first Push seals).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a group with the same queries
  /// registered in the same order (validated by query and distinct-
  /// definition counts). Seals the group if the first Push hasn't
  /// already. On success, `*offset` (when non-null) receives the
  /// event-log offset to replay from. On error the group must be
  /// Reset() or discarded.
  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr);

  /// Incremental checkpoints (Durability contract): between full
  /// snapshots only the shared deriver (touched by every event) and the
  /// engines of queries dirtied since the last successful checkpoint are
  /// serialized (a kQueryGroupDelta section). Dirty tracking piggybacks
  /// on the per-event fan-out: a query is dirty if an event fired one of
  /// its definitions or its lazy event count was advanced (SyncEvents),
  /// which are exactly the ways an engine's serialized state can change.
  /// Valid only relative to a baseline established by a full
  /// checkpoint/restore — see CanCheckpointIncremental(). The caller
  /// (log::RecoveryManager) invokes MarkCheckpointBaseline() after the
  /// bytes are durably persisted.
  bool CanCheckpointIncremental() const {
    return sealed_ && incremental_valid_;
  }
  void CheckpointIncremental(ckpt::Writer& w) const;
  /// Applies a delta on top of the current state (restored base full
  /// snapshot plus earlier deltas of the same chain).
  Status RestoreIncremental(ckpt::Reader& r, uint64_t* offset = nullptr);
  void MarkCheckpointBaseline();

  int num_queries() const { return static_cast<int>(queries_.size()); }
  int64_t num_events() const { return num_events_; }
  /// Distinct definitions after fingerprint deduplication (valid once
  /// sealed; before sealing, reflects the queries added so far).
  int num_distinct_definitions() const {
    return static_cast<int>(shared_defs_.size());
  }
  int64_t total_definitions() const { return total_definitions_; }

  /// Per-query match count; `query` is an id returned by AddQuery.
  int64_t num_matches(int query) const;

  /// Per-query engine introspection (stats, buffered counts, shed
  /// accounting). Only valid once sealed; null before.
  const MatchEngine* engine(int query) const {
    return queries_[query]->engine.get();
  }
  MatchEngine* engine(int query) { return queries_[query]->engine.get(); }

  int64_t plan_cache_hits() const { return plan_cache_.hits(); }
  int64_t plan_cache_misses() const { return plan_cache_.misses(); }

  /// Compiled-predicate sharing introspection (0 each unless
  /// Options::compiled_predicates and sealed): distinct bytecode
  /// programs in the shared deriver, and definitions that reused a
  /// sibling's program because their predicate fingerprints matched.
  int num_compiled_programs() const {
    return deriver_ ? deriver_->num_compiled_programs() : 0;
  }
  int64_t program_cache_hits() const {
    return deriver_ ? deriver_->program_cache_hits() : 0;
  }

  bool sealed() const { return sealed_; }

 private:
  struct Query {
    QuerySpec spec;
    OutputCallback output;            // consumed at Seal
    MatchEngine::Options engine_options;
    std::vector<int> slots;           // query symbol -> shared def index
    std::unique_ptr<MatchEngine> engine;  // built at Seal
    Deriver::Update scratch;          // per-event fan-out assembly
    // Payloads the engine swapped back into scratch (see PayloadPool):
    // each fanned-out situation is copied into one of them, so the
    // fan-out does not allocate in steady state.
    PayloadPool spare_payloads;

    /// `s` as query symbol `sym`, its payload copied into recycled
    /// storage.
    SymbolSituation CopyOf(int sym, const Situation& s) {
      Tuple payload;
      if (!s.payload.empty()) {
        payload = spare_payloads.Take();
        payload = s.payload;
      }
      return SymbolSituation{sym, Situation(std::move(payload), s.ts, s.te)};
    }
  };

  /// Lazily advances query `q`'s engine to the group event count,
  /// marking it checkpoint-dirty when it actually advances.
  void SyncEvents(int q);

  Options options_;
  std::vector<std::unique_ptr<Query>> queries_;
  bool sealed_ = false;
  int64_t num_events_ = 0;
  int64_t total_definitions_ = 0;

  // Shared derivation state.
  std::vector<SituationDefinition> shared_defs_;  // deduplicated
  std::unordered_map<std::string, int> def_index_;  // fingerprint -> index
  // def index -> subscribing (query id, query symbol), ascending.
  std::vector<std::vector<std::pair<int, int>>> subscribers_;
  std::unique_ptr<Deriver> deriver_;
  SharedPlanCache plan_cache_;

  // Per-event fan-out scratch (sized at Seal).
  std::vector<const Situation*> started_by_def_;
  std::vector<const Situation*> finished_by_def_;
  std::vector<int> fired_defs_;
  std::vector<int> dirty_;        // query ids touched by this event
  std::vector<char> dirty_flag_;  // per query

  // Cumulative per-query dirty flags since the last
  // MarkCheckpointBaseline(); the payload of the next incremental
  // checkpoint.
  std::vector<char> ckpt_dirty_;
  bool incremental_valid_ = false;

  // Observability handles on the group registry (null when disabled).
  obs::Counter* events_ctr_ = nullptr;
  obs::Gauge* queries_gauge_ = nullptr;
  obs::Gauge* distinct_defs_gauge_ = nullptr;
  obs::Gauge* plan_hits_gauge_ = nullptr;
  obs::Gauge* plan_misses_gauge_ = nullptr;
};

}  // namespace multi
}  // namespace tpstream

#endif  // TPSTREAM_MULTI_QUERY_GROUP_H_
