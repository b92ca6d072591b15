// synth_dense: the paper's disconnected pattern `A before B, B overlaps
// C` over three synthetic boolean streams, window 100k ticks, in-order
// input, ~6.3 results per event. The join/emit path dominates while
// derivation is three trivial predicates, so matcher work shows here and
// derive work hardly does.
//
// Production path: MemFS WAL (group commit by volume) -> Pipeline{
// Reorder -> Detect(low-latency, adaptive, compiled predicates)} -> sink,
// with two full checkpoints per stream. The traced path
// drives the components Pipeline composes, in the order
// TPStreamOperator::Push calls them: ReorderBuffer::Push ->
// Deriver::Process -> MatchEngine::NoteEvents/Consume -> sink.
#include <numeric>

#include "core/match_engine.h"
#include "core/operator.h"
#include "derive/deriver.h"
#include "ooo/reorder_buffer.h"
#include "pipeline/pipeline.h"
#include "query/parser.h"
#include "robust/dead_letter.h"
#include "workload.h"
#include "workload/synthetic.h"

namespace tpbench {
namespace {

using namespace tpstream;

constexpr const char* kQuery =
    "FROM S DEFINE A AS s0, B AS s1, C AS s2 "
    "PATTERN A before B AND B overlaps C WITHIN 100000 "
    "RETURN count(A.s0) AS na, count(B.s1) AS nb, count(C.s2) AS nc";
constexpr Duration kSlack = 8;
constexpr size_t kEvents = 1'000'000;
constexpr size_t kSmokeEvents = 20'000;
// A fifth of the closed-loop capacity (~0.7M evt/s) measured on a 4-vCPU
// Intel Xeon in a busy phase of its shared host, fixed here and never
// derived from the current run: far enough below capacity that a host
// slowdown does not turn the open loop into a growing backlog.
constexpr double kOfferedRate = 150'000;

QuerySpec Parse(const Schema& schema) {
  auto spec = query::ParseQuery(kQuery, schema);
  if (!spec.ok()) Die("synth_dense query", spec.status());
  return spec.value();
}

TPStreamOperator::Options EngineOptions() {
  TPStreamOperator::Options o;
  o.low_latency = true;
  o.adaptive = true;
  o.compiled_predicates = true;
  return o;
}

struct Outputs {
  Digest all;
  Digest tail;  // since the last checkpoint
  LatencyProbe* probe = nullptr;
  void Add(const Event& e) {
    all.Add(e);
    tail.Add(e);
    if (probe != nullptr) probe->Record(e.t - 1);  // timestamps are 1..n
  }
};

class SynthDense;

class ProductionTrial : public Trial {
 public:
  ProductionTrial(const SynthDense& w, LatencyProbe* probe, size_t begin,
                  size_t end);
  void Push(size_t begin, size_t end) override;
  void Finish() override { pipeline_->Finish(); }

  Durable durable;
  Outputs out;
  robust::CollectingDeadLetterSink late{0};  // counts late drops
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> ckpt_bytes;

 private:
  const SynthDense& w_;
  std::unique_ptr<pipeline::Pipeline> pipeline_;
  size_t pushed_ = 0;
  size_t next_checkpoint_;
};

class TracedTrial : public Trial {
 public:
  explicit TracedTrial(const SynthDense& w);
  void Push(size_t begin, size_t end) override;
  void Finish() override {
    BatchSpan span(kOoo);
    reorder_.Flush(release_);
  }

  Durable durable;
  Outputs out;
  std::vector<Event> sink_sample;  // first outputs, to time the sink
  obs::MetricsRegistry registry;
  int64_t consumes = 0;
  size_t ooo_buffered_max = 0;
  size_t matcher_buffered_max = 0;
  std::unique_ptr<Deriver> deriver;
  std::unique_ptr<MatchEngine> engine;
  ooo::ReorderBuffer reorder_{ooo::ReorderBuffer::Options{.slack = kSlack}};

 private:
  void Release(const Event& e);
  const SynthDense& w_;
  ooo::ReorderBuffer::Sink release_;
  int64_t released_ = 0;
};

class SynthDense : public Workload {
 public:
  void Prepare(uint64_t seed, bool smoke) override {
    SyntheticGenerator::Options g;
    g.num_streams = 3;
    g.seed = seed;
    SyntheticGenerator gen(g);
    schema = gen.schema();
    events.resize(smoke ? kSmokeEvents : kEvents);
    for (Event& e : events) gen.Next(&e);
    spec = Parse(schema);
    simd_ = Deriver(spec.definitions, true, nullptr, DeriveOptions{true, ""})
                .simd_level();
    // Reference: plain operator, interpreter predicates, fixed plan, no
    // log and no reorder; over the whole stream and each slice.
    reference = Reference(0, events.size());
    for (size_t k = 0; k < kSlices; ++k) {
      const auto [begin, end] = SliceBounds(events.size(), k);
      slice_reference.push_back(Reference(begin, end));
    }
  }

  Digest Reference(size_t begin, size_t end) const {
    Digest d;
    TPStreamOperator::Options ref;
    ref.adaptive = false;
    TPStreamOperator op(spec, ref, [&d](const Event& e) { d.Add(e); });
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
  // Two checkpoints per stream, at 40% and 80%: recovery restores the
  // second and replays the last fifth, long enough that its match
  // bursts (and so the replay time) vary little from seed to seed.
  size_t checkpoint_every() const { return events.size() * 2 / 5; }

  double TimedSetup() override {
    const int64_t t0 = ThreadCpuNs();
    QuerySpec s = Parse(schema);
    Durable d = Durable::Open();
    Digest sink;
    pipeline::Pipeline p(schema);
    p.Reorder(kSlack).Detect(std::move(s), EngineOptions()).Sink(
        [&sink](const Event& e) { sink.Add(e); });
    if (Status st = p.Finalize(); !st.ok()) Die("pipeline", st);
    d.Append({&events[0], 1});
    p.Push(events[0]);
    return static_cast<double>(ThreadCpuNs() - t0) / 1e9;
  }

  std::unique_ptr<Trial> NewTrial(bool traced, LatencyProbe* probe,
                                  size_t begin, size_t end) override {
    if (traced) return std::make_unique<TracedTrial>(*this);
    return std::make_unique<ProductionTrial>(*this, probe, begin, end);
  }

  void CheckTrial(Trial& trial, Checks* checks) override {
    const int64_t n = static_cast<int64_t>(events.size());
    if (auto* t = dynamic_cast<ProductionTrial*>(&trial)) {
      checks->failed += t->durable.append_errors + t->late.accepted() +
                        t->late.dropped();
      checks->Expect(t->out.all == ReferenceFor(*t),
                     "synth_dense output == reference",
                     static_cast<int64_t>(t->end - t->begin));
      if (t->begin != 0 || t->end != events.size()) return;  // a slice
      for (double p : t->ckpt_pause_us) ckpt_pause_us.push_back(p);
      ckpt_bytes = t->ckpt_bytes;
      log_bytes = t->durable.fs->total_appended();
      log_syncs = t->durable.fs->num_syncs();
      return;
    }
    auto& t = dynamic_cast<TracedTrial&>(trial);
    checks->failed += t.durable.append_errors + t.reorder_.num_dropped();
    checks->Expect(t.out.all == reference,
                   "synth_dense traced output == reference", n);
    last_traced_stats = {t.consumes, t.engine->num_matches(),
                         t.reorder_.num_reordered(), t.ooo_buffered_max,
                         t.matcher_buffered_max, t.engine->plan_migrations()};
    Outputs spare;
    sink_ns_per_result =
        NsPerCall(t.sink_sample, [&spare](const Event& e) { spare.Add(e); });
    const obs::MetricsSnapshot snap = t.registry.Snapshot();
    predicate_evals = CounterValue(snap, "deriver.predicate_evals");
    situations = CounterValue(snap, "deriver.situations_finished");
  }

  double CrashAndRecover(Trial& trial, Checks* checks) override {
    auto& t = dynamic_cast<ProductionTrial&>(trial);
    return MedianRecovery(t.durable, [&] {
      Digest replayed;
      pipeline::Pipeline p(schema);
      p.Reorder(kSlack).Detect(spec, EngineOptions()).Sink(
          [&replayed](const Event& e) { replayed.Add(e); });
      if (Status st = p.Finalize(); !st.ok()) Die("pipeline", st);
      const int64_t t0 = ThreadCpuNs();
      auto report = t.durable.mgr->Recover(p);
      const double seconds = static_cast<double>(ThreadCpuNs() - t0) / 1e9;
      p.Finish();
      checks->Expect(report.ok() && report.value().restored,
                     "synth_dense recovery restored a checkpoint", 0);
      checks->Expect(replayed == t.out.tail,
                     "synth_dense recovered outputs == uninterrupted tail",
                     static_cast<int64_t>(events.size()));
      if (report.ok()) replayed_events = report.value().replayed_events;
      return seconds;
    });
  }

  void LayerMetrics(const TraceInput& in, Report* r, Checks*) override {
    const double n = static_cast<double>(events.size());
    const Stats& s = last_traced_stats;
    // The sink runs inside MatchEngine::Consume.
    in.tracer->Attribute(kMatcher, kSink,
                         sink_ns_per_result * static_cast<double>(s.matches) *
                             static_cast<double>(in.events) / n);
    r->Add("log.append_ns_per_event", LayerNsPerEvent(in, kLog), "ns");
    r->Add("log.bytes_per_event", static_cast<double>(log_bytes) / n, "B");
    r->Add("log.syncs_per_mevent", static_cast<double>(log_syncs) / n * 1e6,
           "1/Mevt");
    r->Add("ooo.self_ns_per_event", LayerNsPerEvent(in, kOoo), "ns");
    r->Add("ooo.reordered", static_cast<double>(s.reordered), "count");
    r->Add("ooo.buffered_max", static_cast<double>(s.ooo_buffered_max), "count");
    r->Add("derive.self_ns_per_event", LayerNsPerEvent(in, kDerive), "ns");
    r->Add("derive.situations_per_kevent",
           static_cast<double>(situations) / n * 1e3, "1/kevt");
    r->Add("derive.predicate_evals_per_event",
           static_cast<double>(predicate_evals) / n, "count");
    r->Add("matcher.self_ns_per_event", LayerNsPerEvent(in, kMatcher), "ns");
    r->Add("matcher.ns_per_match",
           s.matches > 0 ? in.tracer->SelfNs(kMatcher) /
                               (static_cast<double>(s.matches) * in.events / n)
                         : 0,
           "ns");
    r->Add("matcher.consume_ratio", static_cast<double>(s.consumes) / n, "ratio");
    r->Add("matcher.matches_per_event", static_cast<double>(s.matches) / n,
           "count");
    r->Add("matcher.buffered_max", static_cast<double>(s.matcher_buffered_max),
           "count");
    r->Add("optimizer.plan_migrations", static_cast<double>(s.migrations),
           "count");
    AddCheckpointMetrics(r, ckpt_pause_us, ckpt_bytes, {});
    r->Add("log.recovery_replayed_events", static_cast<double>(replayed_events),
           "count");
    r->Add("sink.ns_per_event", LayerNsPerEvent(in, kSink), "ns");
    r->Add("trace.coverage", in.tracer->TotalNs() / in.wall_ns, "ratio");
  }

  std::string Describe() const override {
    return std::string("simd=") + simd_ + " slack=" + std::to_string(kSlack) +
           " window=100000 checkpoint_every=" + std::to_string(checkpoint_every());
  }

  Schema schema;
  QuerySpec spec;
  std::vector<Event> events;
  Digest reference;
  std::vector<Digest> slice_reference;

 private:
  struct Stats {
    int64_t consumes = 0;
    int64_t matches = 0;
    int64_t reordered = 0;
    size_t ooo_buffered_max = 0;
    size_t matcher_buffered_max = 0;
    int64_t migrations = 0;
  };
  std::string simd_;
  Stats last_traced_stats;
  int64_t predicate_evals = 0;
  int64_t situations = 0;
  double sink_ns_per_result = 0;
  uint64_t log_bytes = 0;
  uint64_t log_syncs = 0;
  uint64_t replayed_events = 0;
  std::vector<double> ckpt_pause_us;
  std::vector<uint64_t> ckpt_bytes;
};

ProductionTrial::ProductionTrial(const SynthDense& w, LatencyProbe* probe,
                                 size_t begin, size_t end)
    : Trial(begin, end),
      durable(Durable::Open()),
      w_(w),
      next_checkpoint_(w.checkpoint_every()) {
  out.probe = probe;
  pipeline_ = std::make_unique<pipeline::Pipeline>(w.schema);
  pipeline_->Reorder({.slack = kSlack, .dead_letter = &late})
      .Detect(w.spec, EngineOptions())
      .Sink(
      [this](const Event& e) { out.Add(e); });
  if (Status st = pipeline_->Finalize(); !st.ok()) Die("pipeline", st);
}

void ProductionTrial::Push(size_t begin, size_t end) {
  const std::span<const Event> batch(&w_.events[begin], end - begin);
  durable.Append(batch);
  pipeline_->PushBatch(batch);
  pushed_ += batch.size();
  if (pushed_ >= next_checkpoint_) {
    next_checkpoint_ += w_.checkpoint_every();
    const int64_t t0 = NowNs();
    auto info = durable.mgr->Checkpoint(*pipeline_);
    ckpt_pause_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!info.ok()) Die("checkpoint", info.status());
    ckpt_bytes.push_back(info.value().bytes);
    out.tail = Digest{};
  }
}

TracedTrial::TracedTrial(const SynthDense& w)
    : Trial(0, w.events.size()), durable(Durable::Open()), w_(w) {
  const TPStreamOperator::Options o = EngineOptions();
  deriver = std::make_unique<Deriver>(
      w.spec.definitions, o.low_latency, &registry,
      DeriveOptions{o.compiled_predicates, o.simd});
  MatchEngine::Options eo;
  eo.low_latency = o.low_latency;
  eo.adaptive = o.adaptive;
  std::vector<int> slots(w.spec.definitions.size());
  std::iota(slots.begin(), slots.end(), 0);
  engine = std::make_unique<MatchEngine>(&w.spec, deriver.get(),
                                         std::move(slots), eo,
                                         [this](const Event& e) {
                                           out.Add(e);
                                           if (sink_sample.size() < kSinkSample) {
                                             sink_sample.push_back(e);
                                           }
                                         });
  release_ = [this](const Event& e) { Release(e); };
}

void TracedTrial::Release(const Event& e) {
  Deriver::Update* update;
  {
    Span span(kDerive);
    update = &deriver->Process(e);
  }
  {
    Span span(kMatcher);
    engine->NoteEvents(1);
    if (!update->empty()) {
      ++consumes;
      engine->Consume(*update, e.t);
    }
  }
  if ((++released_ & 1023) == 0) {
    matcher_buffered_max = std::max(matcher_buffered_max, engine->BufferedCount());
  }
}

void TracedTrial::Push(size_t begin, size_t end) {
  const std::span<const Event> batch(&w_.events[begin], end - begin);
  {
    BatchSpan span(kLog);
    durable.Append(batch);
  }
  for (size_t i = begin; i < end; ++i) {
    EventSpan span(kOoo, static_cast<int64_t>(i));
    reorder_.Push(w_.events[i], release_);
  }
  ooo_buffered_max = std::max(ooo_buffered_max, reorder_.buffered());
}

}  // namespace

std::unique_ptr<Workload> MakeSynthDense() {
  return std::make_unique<SynthDense>();
}

}  // namespace tpbench
