// many_rules: one instrument of MarketDataGenerator with a few hundred
// standing rules in one multi::QueryGroup (compiled predicates). Rule
// thresholds come from small grids, so about a fifth of the definitions
// are distinct; results are rare. ~2% of events arrive late, within the
// reorder slack. Derivation and the multi-query fan-out dominate, the
// reorder heap does real work, and the write side (WAL + incremental
// checkpoints, full every 8th) runs beside detection. A change that buys
// speed with checkpoint pauses or recovery time shows here.
//
// Production path: arrival -> standalone ReorderBuffer -> released
// batch -> MemFS WAL append -> QueryGroup::PushBatch -> per-query sinks,
// with RecoveryManager::Checkpoint 100 times per stream. The
// log holds the released (in-order) stream, so log offsets are the
// group's event counts and recovery replays straight into a group.
//
// The traced path drives the components QueryGroup composes: one
// Deriver over the fingerprint-deduplicated definitions, one
// MatchEngine per query sharing a SharedPlanCache, and the group's
// fan-out, so derive, fan-out and match time separate.
#include <random>
#include <unordered_map>

#include "core/match_engine.h"
#include "core/operator.h"
#include "derive/deriver.h"
#include "derive/fingerprint.h"
#include "multi/query_group.h"
#include "ooo/reorder_buffer.h"
#include "optimizer/shared_plan_cache.h"
#include "query/parser.h"
#include "robust/dead_letter.h"
#include "workload.h"
#include "workload/market.h"

namespace tpbench {
namespace {

using namespace tpstream;

constexpr int kRules = 250;
constexpr Duration kSlack = 16;
constexpr double kLateShare = 0.02;
constexpr size_t kEvents = 400'000;
constexpr size_t kSmokeEvents = 20'000;
constexpr size_t kReferencePrefix = 20'000;       // whole-stream trials
constexpr size_t kSliceReferencePrefix = 2'500;   // open-loop slices
// A sixth of the closed-loop capacity (~0.36M evt/s) measured on a 4-vCPU
// Intel Xeon in a busy phase of its shared host, fixed here and never
// derived from the current run: far enough below capacity that a host
// slowdown does not turn the open loop into a growing backlog.
constexpr double kOfferedRate = 60'000;

/// The standing rules, fixed for every seed (the seed only drives the
/// market data). Definitions are drawn from threshold x duration grids.
std::vector<std::string> RuleTexts() {
  std::mt19937_64 rng(20180326);
  auto pick = [&rng](auto const& v) {
    return v[std::uniform_int_distribution<size_t>(0, v.size() - 1)(rng)];
  };
  const std::vector<std::string> ret_up = {"0.02", "0.03", "0.04",
                                           "0.05", "0.06", "0.07"};
  const std::vector<std::string> ret_down = {"-0.02", "-0.03", "-0.04",
                                             "-0.05", "-0.06", "-0.07"};
  const std::vector<std::string> vol_hi = {"150", "180", "210", "240",
                                           "270", "300", "330", "360"};
  const std::vector<std::string> vol_lo = {"80", "85", "90", "95", "100"};
  const std::vector<std::string> short_d = {"2", "3", "5", "8"};
  const std::vector<std::string> long_d = {"10", "20", "30", "40"};
  const std::vector<std::string> windows = {"120", "300", "600"};
  auto up = [&] { return "ret > " + pick(ret_up) + " AT LEAST " + pick(short_d); };
  auto down = [&] {
    return "ret < " + pick(ret_down) + " AT LEAST " + pick(short_d);
  };
  auto hivol = [&] {
    return "volume > " + pick(vol_hi) + " AT LEAST " + pick(short_d);
  };
  auto calm = [&] {
    return "volume < " + pick(vol_lo) + " AT LEAST " + pick(long_d);
  };
  std::vector<std::string> texts;
  for (int i = 0; i < kRules; ++i) {
    std::string x, y, rel;
    switch (i % 4) {
      case 0:  // reversal
        x = up(), y = down(), rel = "X before Y";
        break;
      case 1:  // volume burst inside a rally
        x = hivol(), y = up(), rel = "X overlaps Y; X starts Y; X during Y";
        break;
      case 2:  // selloff runs into calm
        x = down(), y = calm(), rel = "X meets Y; X before Y";
        break;
      default:  // breakout from calm
        x = calm(), y = hivol(), rel = "X meets Y; X before Y";
        break;
    }
    texts.push_back("FROM M DEFINE X AS " + x + ", Y AS " + y + " PATTERN " +
                    rel + " WITHIN " + pick(windows) +
                    " RETURN first(X.price) AS px, first(Y.price) AS py");
  }
  return texts;
}

std::vector<QuerySpec> ParseRules(const std::vector<std::string>& texts,
                                  const Schema& schema) {
  std::vector<QuerySpec> specs;
  specs.reserve(texts.size());
  for (const std::string& text : texts) {
    auto spec = query::ParseQuery(text, schema);
    if (!spec.ok()) Die("many_rules query", spec.status());
    specs.push_back(std::move(spec.value()));
  }
  return specs;
}

multi::QueryGroup::Options GroupOptions() {
  multi::QueryGroup::Options o;
  o.low_latency = true;
  o.adaptive = true;
  o.compiled_predicates = true;
  return o;
}

class ManyRules;

/// Reference outputs of one input range: per rule, the digest of a
/// standalone operator over the range's in-order prefix ending at
/// `prefix_t`.
struct RangeReference {
  TimePoint prefix_t = 0;
  std::vector<Digest> per_query;
  Digest first_all;  // whole-range outputs of the first trial seen
};

/// Per-query and whole-stream output digests.
struct Outputs {
  Outputs(const ManyRules& w, LatencyProbe* probe, TimePoint prefix_t);
  void Add(int query, const Event& e);
  const ManyRules& w;
  LatencyProbe* probe;
  TimePoint prefix_t;
  Digest all;
  Digest tail;  // since the last checkpoint
  std::vector<Digest> prefix;  // per query, results at t <= prefix_t
};

/// Shared front half of both paths: reorder into a released batch.
class ReorderFront {
 public:
  explicit ReorderFront(robust::DeadLetterSink* late)
      : reorder_({.slack = kSlack, .dead_letter = late}),
        collect_([this](const Event& e) { released_.push_back(e); }) {}
  ooo::ReorderBuffer& reorder() { return reorder_; }
  std::vector<Event>& released() { return released_; }
  const ooo::ReorderBuffer::Sink& collect() const { return collect_; }

 private:
  ooo::ReorderBuffer reorder_;
  std::vector<Event> released_;
  ooo::ReorderBuffer::Sink collect_;
};

class ProductionTrial : public Trial {
 public:
  ProductionTrial(const ManyRules& w, LatencyProbe* probe, size_t begin,
                  size_t end);
  void Push(size_t begin, size_t end) override;
  void Finish() override;

  Durable durable;
  Outputs out;
  robust::CollectingDeadLetterSink late{0};
  ReorderFront front{&late};
  std::unique_ptr<multi::QueryGroup> group;
  size_t buffered_max = 0;
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> full_bytes, delta_bytes;

 private:
  void Deliver();
  const ManyRules& w_;
  int64_t next_checkpoint_;
};

/// The QueryGroup's components driven directly, with spans.
class TracedTrial : public Trial {
 public:
  explicit TracedTrial(const ManyRules& w);
  void Push(size_t begin, size_t end) override;
  void Finish() override;

  Durable durable;
  Outputs out;
  robust::CollectingDeadLetterSink late{0};
  ReorderFront front{&late};
  std::vector<Event> sink_sample;  // first outputs, to time the sink
  obs::MetricsRegistry registry;
  std::unique_ptr<Deriver> deriver;
  SharedPlanCache plan_cache;
  struct Query {
    std::vector<int> slots;
    std::unique_ptr<MatchEngine> engine;
    Deriver::Update scratch;
  };
  std::vector<Query> queries;
  int64_t consumes = 0;
  size_t buffered_max = 0;

 private:
  void Deliver();
  void ProcessOne(const Event& e);
  void Sync(Query& q) {
    const int64_t behind = num_events_ - q.engine->num_events();
    if (behind > 0) q.engine->NoteEvents(behind);
  }
  const ManyRules& w_;
  std::vector<std::vector<int>> subscribers_;  // def -> queries
  std::vector<const Situation*> started_, finished_;
  std::vector<int> fired_, dirty_;
  std::vector<char> dirty_flag_;
  int64_t num_events_ = 0;
};

class ManyRules : public Workload {
 public:
  void Prepare(uint64_t seed, bool smoke) override {
    MarketDataGenerator::Options g;
    g.num_symbols = 1;
    g.seed = seed;
    MarketDataGenerator gen(g);
    schema = gen.schema();
    const size_t n = smoke ? kSmokeEvents : kEvents;
    std::vector<Event> sorted;
    sorted.reserve(n);
    for (size_t i = 0; i < n; ++i) sorted.push_back(gen.Next());
    // Late arrivals: an event delayed by d <= slack positions is never
    // later than the reorder buffer tolerates (one event per tick).
    std::mt19937_64 rng(seed ^ 0x5eed);
    std::bernoulli_distribution late(kLateShare);
    std::uniform_int_distribution<int64_t> delay(1, kSlack);
    std::vector<std::pair<int64_t, size_t>> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = {static_cast<int64_t>(i) + (late(rng) ? delay(rng) : 0), i};
    }
    std::sort(order.begin(), order.end());
    arrival.resize(n);
    arrival_pos.resize(n);
    for (size_t a = 0; a < n; ++a) {
      arrival[a] = std::move(sorted[order[a].second]);
      arrival_pos[static_cast<size_t>(arrival[a].t - 1)] = a;
    }
    texts = RuleTexts();
    specs = ParseRules(texts, schema);
    references.push_back(BuildReference(0, n, kReferencePrefix));
    for (size_t k = 0; k < kSlices; ++k) {
      const auto [begin, end] = SliceBounds(n, k);
      references.push_back(BuildReference(begin, end, kSliceReferencePrefix));
    }
    simd_ = Deriver(specs[0].definitions, true, nullptr, DeriveOptions{true, ""})
                .simd_level();
  }
  /// Reference: one plain operator per rule (interpreter predicates,
  /// fixed plan, no log, no reorder) over the in-order prefix of the
  /// events that arrive in [begin, end).
  RangeReference BuildReference(size_t begin, size_t end,
                                size_t prefix_len) const {
    std::vector<const Event*> range;
    for (size_t i = begin; i < end; ++i) range.push_back(&arrival[i]);
    const size_t len = std::min(range.size(), prefix_len);
    std::partial_sort(range.begin(), range.begin() + len, range.end(),
                      [](const Event* a, const Event* b) { return a->t < b->t; });
    range.resize(len);
    RangeReference ref;
    ref.prefix_t = range.back()->t;
    ref.per_query.assign(specs.size(), Digest{});
    TPStreamOperator::Options options;
    options.adaptive = false;
    for (size_t q = 0; q < specs.size(); ++q) {
      Digest& d = ref.per_query[q];
      TPStreamOperator op(specs[q], options, [&d](const Event& e) { d.Add(e); });
      for (const Event* e : range) op.Push(*e);
    }
    return ref;
  }

  /// The reference of a trial's input range: 0 is the whole stream,
  /// 1 + k open-loop slice k.
  size_t RangeIndex(const Trial& t) const {
    if (t.begin == 0 && t.end == arrival.size()) return 0;
    return 1 + t.begin / (arrival.size() / kSlices);
  }

  size_t num_events() const override { return arrival.size(); }
  double offered_rate() const override { return kOfferedRate; }
  // 100 checkpoints per stream (one per ~66 ms at the offered rate), the
  // last one half a cadence before its end, so recovery restores a full
  // snapshot plus deltas and replays a tail.
  int64_t checkpoint_every() const {
    return static_cast<int64_t>(arrival.size() * 2 / 201);
  }

  std::unique_ptr<multi::QueryGroup> BuildGroup(Outputs* out) const {
    auto group = std::make_unique<multi::QueryGroup>(GroupOptions());
    for (size_t q = 0; q < specs.size(); ++q) {
      multi::QueryGroup::OutputCallback cb;
      if (out != nullptr) {
        cb = [out, q](const Event& e) { out->Add(static_cast<int>(q), e); };
      }
      auto id = group->AddQuery(specs[q], std::move(cb));
      if (!id.ok()) Die("AddQuery", id.status());
    }
    return group;
  }

  double TimedSetup() override {
    const int64_t t0 = ThreadCpuNs();
    std::vector<QuerySpec> parsed = ParseRules(texts, schema);
    const int64_t t1 = ThreadCpuNs();
    compile_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    auto group = std::make_unique<multi::QueryGroup>(GroupOptions());
    for (QuerySpec& spec : parsed) {
      auto id = group->AddQuery(std::move(spec), nullptr);
      if (!id.ok()) Die("AddQuery", id.status());
    }
    Durable d = Durable::Open();
    robust::CollectingDeadLetterSink late_sink(0);
    ReorderFront front(&late_sink);
    front.reorder().Push(arrival[0], front.collect());
    group->Seal();
    return static_cast<double>(ThreadCpuNs() - t0) / 1e9;
  }

  std::unique_ptr<Trial> NewTrial(bool traced, LatencyProbe* probe,
                                  size_t begin, size_t end) override {
    if (traced) return std::make_unique<TracedTrial>(*this);
    return std::make_unique<ProductionTrial>(*this, probe, begin, end);
  }

  void CheckOutputs(const Trial& t, const Outputs& out, const char* path,
                    Checks* checks) {
    const int64_t n = static_cast<int64_t>(t.end - t.begin);
    RangeReference& ref = references[RangeIndex(t)];
    bool prefix_ok = true;
    for (size_t q = 0; q < specs.size(); ++q) {
      prefix_ok = prefix_ok && out.prefix[q] == ref.per_query[q];
    }
    checks->Expect(prefix_ok,
                   std::string("many_rules ") + path +
                       " per-query prefix outputs == standalone operators",
                   n);
    if (ref.first_all.count == 0) ref.first_all = out.all;
    checks->Expect(out.all == ref.first_all,
                   std::string("many_rules ") + path +
                       " whole-range outputs equal across trials",
                   n);
  }

  void CheckTrial(Trial& trial, Checks* checks) override {
    if (auto* t = dynamic_cast<ProductionTrial*>(&trial)) {
      checks->failed += t->durable.append_errors + t->late.accepted() +
                        t->late.dropped();
      CheckOutputs(*t, t->out, "group", checks);
      if (RangeIndex(*t) != 0) return;  // a slice
      for (double p : t->ckpt_pause_us) ckpt_pause_us.push_back(p);
      full_bytes = t->full_bytes;
      delta_bytes = t->delta_bytes;
      log_bytes = t->durable.fs->total_appended();
      log_syncs = t->durable.fs->num_syncs();
      reordered = t->front.reorder().num_reordered();
      ooo_buffered_max = t->buffered_max;
      distinct_ratio = static_cast<double>(t->group->num_distinct_definitions()) /
                       static_cast<double>(t->group->total_definitions());
      const double lookups = static_cast<double>(t->group->plan_cache_hits() +
                                                 t->group->plan_cache_misses());
      plan_hit_ratio =
          lookups > 0 ? static_cast<double>(t->group->plan_cache_hits()) / lookups
                      : 0;
      migrations = 0;
      for (int q = 0; q < t->group->num_queries(); ++q) {
        migrations += t->group->engine(q)->plan_migrations();
      }
      return;
    }
    auto& t = dynamic_cast<TracedTrial&>(trial);
    checks->failed += t.durable.append_errors + t.late.accepted() + t.late.dropped();
    CheckOutputs(t, t.out, "traced", checks);
    traced = {t.consumes, 0, t.buffered_max};
    for (const auto& q : t.queries) traced.matches += q.engine->num_matches();
    Outputs spare(*this, nullptr, 0);
    sink_ns_per_result = NsPerCall(
        t.sink_sample, [&spare](const Event& e) { spare.Add(0, e); });
    const obs::MetricsSnapshot snap = t.registry.Snapshot();
    predicate_evals = CounterValue(snap, "deriver.predicate_evals");
    situations = CounterValue(snap, "deriver.situations_finished");
  }

  double CrashAndRecover(Trial& trial, Checks* checks) override {
    auto& t = dynamic_cast<ProductionTrial&>(trial);
    return MedianRecovery(t.durable, [&] {
      Outputs replayed(*this, nullptr, 0);
      auto group = BuildGroup(&replayed);
      const int64_t t0 = ThreadCpuNs();
      auto report = t.durable.mgr->Recover(*group);
      const double seconds = static_cast<double>(ThreadCpuNs() - t0) / 1e9;
      group->Flush();
      checks->Expect(report.ok() && report.value().restored,
                     "many_rules recovery restored a checkpoint", 0);
      bool counts_ok = group->num_queries() == t.group->num_queries();
      for (int q = 0; counts_ok && q < group->num_queries(); ++q) {
        counts_ok = group->num_matches(q) == t.group->num_matches(q);
      }
      checks->Expect(counts_ok,
                     "many_rules recovered per-query match counts == "
                     "uninterrupted run",
                     static_cast<int64_t>(arrival.size()));
      checks->Expect(replayed.all == t.out.tail,
                     "many_rules recovered outputs == uninterrupted tail",
                     static_cast<int64_t>(arrival.size()));
      if (report.ok()) {
        replayed_events = report.value().replayed_events;
        deltas_applied = report.value().deltas_applied;
      }
      return seconds;
    });
  }

  void LayerMetrics(const TraceInput& in, Report* r, Checks*) override {
    const double n = static_cast<double>(arrival.size());
    // The sinks run inside MatchEngine::Consume.
    in.tracer->Attribute(kMatcher, kSink,
                         sink_ns_per_result *
                             static_cast<double>(traced.matches) *
                             static_cast<double>(in.events) / n);
    r->Add("log.append_ns_per_event", LayerNsPerEvent(in, kLog), "ns");
    r->Add("log.bytes_per_event", static_cast<double>(log_bytes) / n, "B");
    r->Add("log.syncs_per_mevent", static_cast<double>(log_syncs) / n * 1e6,
           "1/Mevt");
    r->Add("ooo.self_ns_per_event", LayerNsPerEvent(in, kOoo), "ns");
    r->Add("ooo.reordered", static_cast<double>(reordered), "count");
    r->Add("ooo.buffered_max", static_cast<double>(ooo_buffered_max), "count");
    r->Add("derive.self_ns_per_event", LayerNsPerEvent(in, kDerive), "ns");
    r->Add("derive.situations_per_kevent",
           static_cast<double>(situations) / n * 1e3, "1/kevt");
    r->Add("derive.predicate_evals_per_event",
           static_cast<double>(predicate_evals) / n, "count");
    r->Add("matcher.self_ns_per_event", LayerNsPerEvent(in, kMatcher), "ns");
    r->Add("matcher.ns_per_match",
           traced.matches > 0
               ? in.tracer->SelfNs(kMatcher) /
                     (static_cast<double>(traced.matches) * in.events / n)
               : 0,
           "ns");
    r->Add("matcher.consume_ratio", static_cast<double>(traced.consumes) / n,
           "ratio");
    r->Add("matcher.matches_per_event", static_cast<double>(traced.matches) / n,
           "count");
    r->Add("matcher.buffered_max", static_cast<double>(traced.buffered_max),
           "count");
    r->Add("optimizer.plan_migrations", static_cast<double>(migrations), "count");
    r->Add("multi.self_ns_per_event", LayerNsPerEvent(in, kMulti), "ns");
    r->Add("multi.distinct_def_ratio", distinct_ratio, "ratio");
    r->Add("multi.plan_cache_hit_ratio", plan_hit_ratio, "ratio");
    AddCheckpointMetrics(r, ckpt_pause_us, full_bytes, delta_bytes);
    r->Add("log.recovery_replayed_events", static_cast<double>(replayed_events),
           "count");
    r->Add("log.recovery_deltas_applied", static_cast<double>(deltas_applied),
           "count");
    for (int i = 0; i < 5; ++i) TimedSetup();
    r->Add("query.compile_ms", Median(compile_ms), "ms");
    r->Add("sink.ns_per_event", LayerNsPerEvent(in, kSink), "ns");
    r->Add("trace.coverage", in.tracer->TotalNs() / in.wall_ns, "ratio");
  }

  std::string Describe() const override {
    return std::string("simd=") + simd_ + " rules=" + std::to_string(kRules) +
           " slack=" + std::to_string(kSlack) +
           " checkpoint_every=" + std::to_string(checkpoint_every()) +
           " reference_prefix_t=" + std::to_string(references[0].prefix_t);
  }

  Schema schema;
  std::vector<std::string> texts;
  std::vector<QuerySpec> specs;
  std::vector<Event> arrival;        // arrival order
  std::vector<size_t> arrival_pos;   // timestamp - 1 -> arrival index
  std::vector<RangeReference> references;  // see RangeIndex

 private:
  struct Traced {
    int64_t consumes = 0;
    int64_t matches = 0;
    size_t buffered_max = 0;
  };
  std::string simd_;
  Traced traced;
  int64_t predicate_evals = 0;
  int64_t situations = 0;
  double sink_ns_per_result = 0;
  uint64_t log_bytes = 0;
  uint64_t log_syncs = 0;
  int64_t reordered = 0;
  size_t ooo_buffered_max = 0;
  double distinct_ratio = 0;
  double plan_hit_ratio = 0;
  int64_t migrations = 0;
  uint64_t replayed_events = 0;
  int64_t deltas_applied = 0;
  std::vector<double> compile_ms;
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> full_bytes, delta_bytes;
};

Outputs::Outputs(const ManyRules& w, LatencyProbe* probe, TimePoint prefix_t)
    : w(w), probe(probe), prefix_t(prefix_t), prefix(w.specs.size()) {}

void Outputs::Add(int query, const Event& e) {
  all.Add(e);
  tail.Add(e);
  if (e.t <= prefix_t) prefix[query].Add(e);
  if (probe != nullptr) {
    probe->Record(static_cast<int64_t>(w.arrival_pos[e.t - 1]));
  }
}

ProductionTrial::ProductionTrial(const ManyRules& w, LatencyProbe* probe,
                                 size_t begin, size_t end)
    : Trial(begin, end),
      durable(Durable::Open()),
      out(w, probe, w.references[w.RangeIndex(*this)].prefix_t),
      group(w.BuildGroup(&out)),
      w_(w),
      next_checkpoint_(w.checkpoint_every()) {
  group->Seal();
}

void ProductionTrial::Deliver() {
  std::vector<Event>& batch = front.released();
  if (batch.empty()) return;
  durable.Append(batch);
  group->PushBatch(std::span<const Event>(batch));
  batch.clear();
  if (group->num_events() >= next_checkpoint_) {
    next_checkpoint_ += w_.checkpoint_every();
    const int64_t t0 = NowNs();
    auto info = durable.mgr->Checkpoint(*group);
    ckpt_pause_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!info.ok()) Die("checkpoint", info.status());
    (info.value().incremental ? delta_bytes : full_bytes)
        .push_back(info.value().bytes);
    out.tail = Digest{};
  }
}

void ProductionTrial::Push(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    front.reorder().Push(w_.arrival[i], front.collect());
  }
  buffered_max = std::max(buffered_max, front.reorder().buffered());
  Deliver();
}

void ProductionTrial::Finish() {
  front.reorder().Flush(front.collect());
  Deliver();
  group->Flush();
}

TracedTrial::TracedTrial(const ManyRules& w)
    : Trial(0, w.arrival.size()),
      durable(Durable::Open()),
      out(w, nullptr, w.references[0].prefix_t),
      w_(w) {
  // Deduplicate definitions by structural fingerprint, as the group does.
  std::vector<SituationDefinition> defs;
  std::unordered_map<std::string, int> index;
  queries.resize(w.specs.size());
  for (size_t q = 0; q < w.specs.size(); ++q) {
    for (const SituationDefinition& def : w.specs[q].definitions) {
      auto [it, inserted] =
          index.emplace(DefinitionFingerprint(def), static_cast<int>(defs.size()));
      if (inserted) {
        defs.push_back(def);
        subscribers_.emplace_back();
      }
      queries[q].slots.push_back(it->second);
      subscribers_[it->second].push_back(static_cast<int>(q));
    }
  }
  const multi::QueryGroup::Options o = GroupOptions();
  deriver = std::make_unique<Deriver>(defs, o.low_latency, &registry,
                                      DeriveOptions{o.compiled_predicates, o.simd});
  for (size_t q = 0; q < w.specs.size(); ++q) {
    MatchEngine::Options eo;
    eo.low_latency = o.low_latency;
    eo.adaptive = o.adaptive;
    eo.plan_cache = &plan_cache;
    queries[q].engine = std::make_unique<MatchEngine>(
        &w.specs[q], deriver.get(), queries[q].slots, eo,
        [this, q](const Event& e) {
          out.Add(static_cast<int>(q), e);
          if (sink_sample.size() < kSinkSample) sink_sample.push_back(e);
        });
  }
  started_.assign(defs.size(), nullptr);
  finished_.assign(defs.size(), nullptr);
  dirty_flag_.assign(w.specs.size(), 0);
}

void TracedTrial::ProcessOne(const Event& e) {
  ++num_events_;
  Deriver::Update* update;
  {
    Span span(kDerive);
    update = &deriver->Process(e);
  }
  if (update->empty()) return;
  auto mark = [this](const SymbolSituation& s, std::vector<const Situation*>& by_def) {
    if (started_[s.symbol] == nullptr && finished_[s.symbol] == nullptr) {
      fired_.push_back(s.symbol);
    }
    by_def[s.symbol] = &s.situation;
    for (int q : subscribers_[s.symbol]) {
      if (!dirty_flag_[q]) {
        dirty_flag_[q] = 1;
        dirty_.push_back(q);
      }
    }
  };
  for (const SymbolSituation& s : update->started) mark(s, started_);
  for (const SymbolSituation& f : update->finished) mark(f, finished_);
  for (int qi : dirty_) {
    Query& q = queries[qi];
    q.scratch.started.clear();
    q.scratch.finished.clear();
    for (int sym = 0; sym < static_cast<int>(q.slots.size()); ++sym) {
      if (const Situation* s = started_[q.slots[sym]]) {
        q.scratch.started.push_back(SymbolSituation{sym, *s});
      }
      if (const Situation* f = finished_[q.slots[sym]]) {
        q.scratch.finished.push_back(SymbolSituation{sym, *f});
      }
    }
    Span span(kMatcher);
    Sync(q);
    ++consumes;
    q.engine->Consume(q.scratch, e.t);
    dirty_flag_[qi] = 0;
  }
  dirty_.clear();
  for (int d : fired_) started_[d] = finished_[d] = nullptr;
  fired_.clear();
}

void TracedTrial::Deliver() {
  std::vector<Event>& batch = front.released();
  if (batch.empty()) return;
  {
    BatchSpan span(kLog);
    durable.Append(batch);
  }
  {
    BatchSpan span(kDerive);
    deriver->PrepareBatch(batch);
  }
  for (const Event& e : batch) {
    EventSpan span(kMulti, num_events_);
    ProcessOne(e);
  }
  if ((num_events_ & 4095) < static_cast<int64_t>(batch.size())) {
    size_t buffered = 0;
    for (const Query& q : queries) buffered += q.engine->BufferedCount();
    buffered_max = std::max(buffered_max, buffered);
  }
  batch.clear();
}

void TracedTrial::Push(size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    EventSpan span(kOoo, static_cast<int64_t>(i));
    front.reorder().Push(w_.arrival[i], front.collect());
  }
  Deliver();
}

void TracedTrial::Finish() {
  {
    BatchSpan span(kOoo);
    front.reorder().Flush(front.collect());
  }
  Deliver();
  BatchSpan span(kMatcher);
  for (Query& q : queries) {
    Sync(q);
    q.engine->Flush();
  }
}

}  // namespace

std::unique_ptr<Workload> MakeManyRules() {
  return std::make_unique<ManyRules>();
}

}  // namespace tpbench
