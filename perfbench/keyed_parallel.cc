// keyed_parallel: the 64-key boolean phase stream of the parallel
// scaling bench (flip p=0.35, ~7.3 results/event) with `A meets|before B
// within 200 PARTITION BY key`, on ParallelTPStream with 2 workers
// (producer + 2 = 3 threads). The producer appends each batch to the
// MemFS WAL before PushBatch. The only workload where the parallel layer
// runs: each worker is engine-bound, so the hand-off rings and the
// serialized output path show here.
//
// The traced run times the producer's calls (log append, PushBatch,
// checkpoints, final Flush); the workers' derive and match costs come
// from a traced sequential pass that drives one Deriver + MatchEngine
// per key, as PartitionedTPStream does, and the speedup baseline is the
// same production path on a sequential PartitionedTPStream.
#include <numeric>
#include <random>

#include "core/match_engine.h"
#include "core/operator.h"
#include "core/partitioned_operator.h"
#include "derive/deriver.h"
#include "parallel/parallel_operator.h"
#include "query/parser.h"
#include "workload.h"

namespace tpbench {
namespace {

using namespace tpstream;

constexpr const char* kQuery =
    "FROM K PARTITION BY key DEFINE A AS flag, B AS NOT flag "
    "PATTERN A meets B; A before B WITHIN 200 "
    "RETURN first(A.key) AS key, count(A.flag) AS n";
constexpr int kKeys = 64;
constexpr double kFlip = 0.35;
// Producer + 2 workers leave one of the four vCPUs to everything else.
constexpr int kWorkers = 2;
constexpr size_t kEvents = 1'000'000;
constexpr size_t kSmokeEvents = 32'000;
// About a fifth of the closed-loop capacity (~1M evt/s) measured on a
// 4-vCPU Intel Xeon in a busy phase of its shared host, fixed here and
// never derived from the current run: far enough below capacity that a
// host slowdown does not turn the open loop into a growing backlog.
constexpr double kOfferedRate = 200'000;

QuerySpec Parse(const Schema& schema) {
  auto spec = query::ParseQuery(kQuery, schema);
  if (!spec.ok()) Die("keyed_parallel query", spec.status());
  return spec.value();
}

TPStreamOperator::Options OperatorOptions() {
  TPStreamOperator::Options o;
  o.low_latency = true;
  o.adaptive = true;
  o.compiled_predicates = true;
  return o;
}

parallel::ParallelTPStream::Options ParallelOptions() {
  parallel::ParallelTPStream::Options o;
  o.num_workers = kWorkers;
  o.operator_options = OperatorOptions();
  return o;
}

class KeyedParallel;

/// Outputs of one run; written from worker threads, which the engine
/// serializes, and read by the producer after a Flush.
struct Outputs {
  Digest all;
  Digest tail;  // since the last checkpoint
  std::vector<int64_t> per_key = std::vector<int64_t>(kKeys, 0);
  LatencyProbe* probe = nullptr;
  void Add(const Event& e) {
    all.Add(e);
    tail.Add(e);
    const int64_t key = e.payload[0].AsInt();
    ++per_key[key];
    if (probe != nullptr) probe->Record((e.t - 1) * kKeys + key);
  }
};

/// Production path on either engine: WAL append, PushBatch, two
/// checkpoints per stream, Flush at the end.
template <typename Engine>
class ProductionTrial : public Trial {
 public:
  ProductionTrial(const KeyedParallel& w, LatencyProbe* probe, size_t begin,
                  size_t end);
  void Push(size_t begin, size_t end) override;
  void Finish() override {
    BatchSpan span(kParallel);
    const int64_t t0 = NowNs();
    engine->Flush();
    flush_ns = NowNs() - t0;
  }

  Durable durable;
  Outputs out;
  std::unique_ptr<Engine> engine;
  int64_t flush_ns = 0;
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> ckpt_bytes;

 private:
  const KeyedParallel& w_;
  size_t pushed_ = 0;
  size_t next_checkpoint_;
};

/// One Deriver + MatchEngine per key, driven as TPStreamOperator::Push
/// does, with spans: the per-event view of what each worker runs.
class DecomposedPass {
 public:
  explicit DecomposedPass(const QuerySpec& spec);
  void Push(const Event& e, int64_t index);
  Outputs out;
  std::vector<Event> sink_sample;  // first outputs, to time the sink
  obs::MetricsRegistry registry;  // the derivers' counters
  int64_t consumes = 0;
  size_t buffered_max = 0;
  int64_t matches() const;

 private:
  struct Partition {
    std::unique_ptr<Deriver> deriver;
    std::unique_ptr<MatchEngine> engine;
  };
  std::vector<Partition> partitions_;
};

class KeyedParallel : public Workload {
 public:
  void Prepare(uint64_t seed, bool smoke) override {
    schema = Schema({Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
    const size_t n = smoke ? kSmokeEvents : kEvents;
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution flip(kFlip);
    std::vector<bool> value(kKeys, false);
    events.reserve(n);
    for (TimePoint t = 1; events.size() < n; ++t) {
      for (int k = 0; k < kKeys && events.size() < n; ++k) {
        if (flip(rng)) value[k] = !value[k];
        events.push_back(Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
      }
    }
    spec = Parse(schema);
    simd_ = Deriver(spec.definitions, true, nullptr, DeriveOptions{true, ""})
                .simd_level();
    reference = Reference(0, n);
    for (size_t k = 0; k < kSlices; ++k) {
      const auto [begin, end] = SliceBounds(n, k);
      slice_reference.push_back(Reference(begin, end));
    }
  }

  /// Sequential partitioned operator, interpreter predicates, fixed
  /// plan, no log.
  Digest Reference(size_t begin, size_t end) const {
    Digest d;
    TPStreamOperator::Options ref;
    ref.adaptive = false;
    PartitionedTPStream op(spec, ref, [&d](const Event& e) { d.Add(e); });
    for (size_t i = begin; i < end; ++i) op.Push(events[i]);
    op.Flush();
    return d;
  }

  const Digest& ReferenceFor(const Trial& t) const {
    if (t.begin == 0 && t.end == events.size()) return reference;
    return slice_reference[t.begin / (events.size() / kSlices)];
  }
  size_t num_events() const override { return events.size(); }
  double offered_rate() const override { return kOfferedRate; }
  bool single_threaded() const override { return false; }
  // Two checkpoints per stream, at 40% and 80%: recovery restores the
  // second and replays the last fifth.
  size_t checkpoint_every() const { return events.size() * 2 / 5; }

  double TimedSetup() override {
    const int64_t t0 = NowNs();
    QuerySpec s = Parse(schema);
    Durable d = Durable::Open();
    Digest sink;
    parallel::ParallelTPStream op(std::move(s), ParallelOptions(),
                                  [&sink](const Event& e) { sink.Add(e); });
    d.Append({&events[0], 1});
    op.Push(events[0]);
    const int64_t t1 = NowNs();
    return static_cast<double>(t1 - t0) / 1e9;
  }

  std::unique_ptr<Trial> NewTrial(bool, LatencyProbe* probe, size_t begin,
                                  size_t end) override {
    return std::make_unique<ProductionTrial<parallel::ParallelTPStream>>(
        *this, probe, begin, end);
  }

  void CheckTrial(Trial& trial, Checks* checks) override {
    auto& t = dynamic_cast<ProductionTrial<parallel::ParallelTPStream>&>(trial);
    checks->failed += t.durable.append_errors + t.engine->shed_events();
    checks->Expect(t.out.all == ReferenceFor(t),
                   "keyed_parallel output == reference",
                   static_cast<int64_t>(t.end - t.begin));
    if (t.begin != 0 || t.end != events.size()) return;
    for (double p : t.ckpt_pause_us) ckpt_pause_us.push_back(p);
    ckpt_bytes = t.ckpt_bytes;
    log_bytes = t.durable.fs->total_appended();
    log_syncs = t.durable.fs->num_syncs();
    flush_ms.push_back(static_cast<double>(t.flush_ns) / 1e6);
    ring_full.push_back(static_cast<double>(
        CounterValue(t.engine->Metrics(), "parallel.ring_full")));
    // Matches per worker, routed exactly as the producer routes keys.
    std::vector<double> per_worker(kWorkers, 0);
    for (int k = 0; k < kKeys; ++k) {
      per_worker[ValueHash{}(Value(static_cast<int64_t>(k))) % kWorkers] +=
          static_cast<double>(t.out.per_key[k]);
    }
    const double mean =
        std::accumulate(per_worker.begin(), per_worker.end(), 0.0) / kWorkers;
    skew = mean > 0 ? *std::max_element(per_worker.begin(), per_worker.end()) / mean
                    : 0;
  }

  double CrashAndRecover(Trial& trial, Checks* checks) override {
    auto& t = dynamic_cast<ProductionTrial<parallel::ParallelTPStream>&>(trial);
    return MedianRecovery(t.durable, [&] {
      Digest replayed;
      parallel::ParallelTPStream op(spec, ParallelOptions(),
                                    [&replayed](const Event& e) { replayed.Add(e); });
      const int64_t t0 = NowNs();
      auto report = t.durable.mgr->Recover(op);
      op.Flush();
      const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
      checks->Expect(report.ok() && report.value().restored,
                     "keyed_parallel recovery restored a checkpoint", 0);
      checks->Expect(replayed == t.out.tail,
                     "keyed_parallel recovered outputs == uninterrupted tail",
                     static_cast<int64_t>(events.size()));
      if (report.ok()) replayed_events = report.value().replayed_events;
      return seconds;
    });
  }

  void LayerMetrics(const TraceInput& in, Report* r, Checks* checks) override {
    const double n = static_cast<double>(events.size());
    r->Add("log.append_ns_per_event", LayerNsPerEvent(in, kLog), "ns");
    r->Add("log.bytes_per_event", static_cast<double>(log_bytes) / n, "B");
    r->Add("log.syncs_per_mevent", static_cast<double>(log_syncs) / n * 1e6,
           "1/Mevt");
    AddCheckpointMetrics(r, ckpt_pause_us, ckpt_bytes, {});
    r->Add("log.recovery_replayed_events", static_cast<double>(replayed_events),
           "count");
    // Producer timeline: everything but the final flush is producer work
    // (including back-pressure waits inside PushBatch).
    const double flush_ns_total = Median(flush_ms) * 1e6 * (in.events / n);
    r->Add("parallel.producer_ns_per_event",
           (in.tracer->SelfNs(kParallel) - flush_ns_total) / in.events, "ns");
    r->Add("parallel.ring_full_per_mevent", Median(ring_full) / n * 1e6, "1/Mevt");
    r->Add("parallel.flush_wait_ms", Median(flush_ms), "ms");
    r->Add("parallel.worker_match_skew", skew, "ratio");
    r->Add("trace.coverage", in.tracer->TotalNs() / in.wall_ns, "ratio");

    // Sequential baseline on the same production path.
    std::vector<double> seq;
    for (int i = 0; i < 3; ++i) {
      ProductionTrial<PartitionedTPStream> t(*this, nullptr, 0, events.size());
      const int64_t t0 = NowNs();
      for (size_t b = 0; b < events.size(); b += 256) {
        t.Push(b, std::min(events.size(), b + 256));
      }
      t.Finish();
      seq.push_back(static_cast<double>(NowNs() - t0));
      checks->offered += static_cast<int64_t>(events.size());
      checks->Expect(t.out.all == reference,
                     "keyed_parallel sequential baseline output == reference",
                     static_cast<int64_t>(events.size()));
    }
    r->Add("parallel.speedup_vs_seq", Median(seq) / in.untraced_ns, "ratio");

    // Per-event worker view: derive, match and sink self time.
    Tracer tracer;
    tracer.Calibrate();
    DecomposedPass pass(spec);
    g_tracer = &tracer;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < events.size(); ++i) {
      pass.Push(events[i], static_cast<int64_t>(i));
    }
    const double wall = static_cast<double>(NowNs() - t0);
    g_tracer = nullptr;
    const int64_t matches = pass.matches();
    Outputs spare;
    tracer.Attribute(kMatcher, kSink,
                     NsPerCall(pass.sink_sample,
                               [&spare](const Event& e) { spare.Add(e); }) *
                         static_cast<double>(matches));
    const obs::MetricsSnapshot snap = pass.registry.Snapshot();
    r->Add("derive.self_ns_per_event", tracer.SelfNs(kDerive) / n, "ns");
    r->Add("derive.situations_per_kevent",
           static_cast<double>(CounterValue(snap, "deriver.situations_finished")) /
               n * 1e3,
           "1/kevt");
    r->Add("derive.predicate_evals_per_event",
           static_cast<double>(CounterValue(snap, "deriver.predicate_evals")) / n,
           "count");
    r->Add("matcher.self_ns_per_event", tracer.SelfNs(kMatcher) / n, "ns");
    r->Add("matcher.ns_per_match",
           matches > 0 ? tracer.SelfNs(kMatcher) / static_cast<double>(matches) : 0,
           "ns");
    r->Add("matcher.consume_ratio", static_cast<double>(pass.consumes) / n, "ratio");
    r->Add("matcher.matches_per_event", static_cast<double>(matches) / n, "count");
    r->Add("matcher.buffered_max", static_cast<double>(pass.buffered_max), "count");
    r->Add("sink.ns_per_event", tracer.SelfNs(kSink) / n, "ns");
    std::printf("info sequential_pass_coverage=%.4f\n", tracer.TotalNs() / wall);
    checks->offered += static_cast<int64_t>(events.size());
    checks->Expect(pass.out.all == reference,
                   "keyed_parallel decomposed pass output == reference",
                   static_cast<int64_t>(events.size()));
  }

  std::string Describe() const override {
    return std::string("simd=") + simd_ + " keys=" + std::to_string(kKeys) +
           " workers=" + std::to_string(kWorkers) +
           " checkpoint_every=" + std::to_string(checkpoint_every());
  }

  Schema schema;
  QuerySpec spec;
  std::vector<Event> events;
  Digest reference;
  std::vector<Digest> slice_reference;

 private:
  std::string simd_;
  uint64_t log_bytes = 0;
  uint64_t log_syncs = 0;
  uint64_t replayed_events = 0;
  double skew = 0;
  std::vector<double> flush_ms;
  std::vector<double> ring_full;
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> ckpt_bytes;
};

template <typename Engine>
ProductionTrial<Engine>::ProductionTrial(const KeyedParallel& w,
                                         LatencyProbe* probe, size_t begin,
                                         size_t end)
    : Trial(begin, end),
      durable(Durable::Open()),
      w_(w),
      next_checkpoint_(w.checkpoint_every()) {
  out.probe = probe;
  auto sink = [this](const Event& e) { out.Add(e); };
  if constexpr (std::is_same_v<Engine, parallel::ParallelTPStream>) {
    engine = std::make_unique<Engine>(w.spec, ParallelOptions(), sink);
  } else {
    engine = std::make_unique<Engine>(w.spec, OperatorOptions(), sink);
  }
}

template <typename Engine>
void ProductionTrial<Engine>::Push(size_t begin, size_t end) {
  const std::span<const Event> batch(&w_.events[begin], end - begin);
  {
    BatchSpan span(kLog);
    durable.Append(batch);
  }
  {
    BatchSpan span(kParallel);
    engine->PushBatch(batch);
  }
  pushed_ += batch.size();
  if (pushed_ >= next_checkpoint_) {
    next_checkpoint_ += w_.checkpoint_every();
    BatchSpan span(kCkpt);
    const int64_t t0 = NowNs();
    auto info = durable.mgr->Checkpoint(*engine);
    ckpt_pause_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!info.ok()) Die("checkpoint", info.status());
    ckpt_bytes.push_back(info.value().bytes);
    out.tail = Digest{};
  }
}

DecomposedPass::DecomposedPass(const QuerySpec& spec) {
  const TPStreamOperator::Options o = OperatorOptions();
  MatchEngine::Options eo;
  eo.low_latency = o.low_latency;
  eo.adaptive = o.adaptive;
  std::vector<int> slots(spec.definitions.size());
  std::iota(slots.begin(), slots.end(), 0);
  partitions_.resize(kKeys);
  for (Partition& p : partitions_) {
    p.deriver = std::make_unique<Deriver>(spec.definitions, o.low_latency, &registry,
                                          DeriveOptions{o.compiled_predicates, o.simd});
    p.engine = std::make_unique<MatchEngine>(&spec, p.deriver.get(), slots, eo,
                                             [this](const Event& e) {
                                               out.Add(e);
                                               if (sink_sample.size() <
                                                   kSinkSample) {
                                                 sink_sample.push_back(e);
                                               }
                                             });
  }
}

void DecomposedPass::Push(const Event& e, int64_t index) {
  Partition& p = partitions_[e.payload[0].AsInt()];
  Deriver::Update* update;
  {
    EventSpan span(kDerive, index);
    update = &p.deriver->Process(e);
  }
  {
    EventSpan span(kMatcher, index);
    p.engine->NoteEvents(1);
    if (!update->empty()) {
      ++consumes;
      p.engine->Consume(*update, e.t);
    }
  }
  if ((index & 4095) == 0) {
    size_t buffered = 0;
    for (const Partition& q : partitions_) buffered += q.engine->BufferedCount();
    buffered_max = std::max(buffered_max, buffered);
  }
}

int64_t DecomposedPass::matches() const {
  int64_t m = 0;
  for (const Partition& p : partitions_) m += p.engine->num_matches();
  return m;
}



}  // namespace

std::unique_ptr<Workload> MakeKeyedParallel() {
  return std::make_unique<KeyedParallel>();
}

}  // namespace tpbench
