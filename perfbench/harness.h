// Shared harness of the end-to-end benchmark: clocks, exact quantiles,
// the order-insensitive output digest, the durable-log fixture, the
// open-loop driver and the sampled span tracer behind the layer ledger.
#ifndef TPSTREAM_PERFBENCH_HARNESS_H_
#define TPSTREAM_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace tpbench {

using tpstream::Event;
using tpstream::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread in ns. It stops while the thread is
/// off its CPU, including the stretches in which the hypervisor runs
/// another tenant on the virtual CPU (steal, several ms at a time on a
/// shared host), so single-threaded work timed on it leaves those out.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Span clock: the cycle counter where there is one (half the cost of a
/// steady_clock read here), else steady_clock nanoseconds. Tracer
/// converts ticks to ns with a rate measured at calibration.
inline int64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

/// Heap allocations made so far by the calling thread. Counts only in the
/// traced binary (alloc_count.cc replaces operator new there); 0 in the
/// untraced one, so the counter's cost never reaches end-to-end numbers.
int64_t ThreadAllocCount();

/// Exact quantile (linear interpolation between order statistics), q in
/// [0, 1]. Takes a copy: callers keep their sample order.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Quantile(v, 0.5);
}

inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of one output event: detection timestamp plus the typed RETURN
/// payload (doubles by bit pattern).
uint64_t HashEvent(const Event& e);

/// Order-insensitive digest of an output stream: result count plus the
/// wrapping sum of per-event hashes, so streams that differ only in
/// emission order (worker interleaving) compare equal.
struct Digest {
  int64_t count = 0;
  uint64_t sum = 0;
  void Add(const Event& e) {
    ++count;
    sum += HashEvent(e);
  }
  bool operator==(const Digest&) const = default;
};

/// Pass/fail bookkeeping of one benchmark process: every check that ran,
/// and the events it condemns when it fails.
struct Checks {
  int64_t offered = 0;  // events offered to the system, all phases
  int64_t failed = 0;
  int ran = 0;
  bool ok = true;
  void Expect(bool pass, const std::string& what, int64_t events) {
    ++ran;
    if (pass) return;
    ok = false;
    failed += events;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

/// The durable side of a run: an in-memory filesystem holding the WAL
/// (group commit by volume) and the checkpoint directory.
struct Durable {
  std::unique_ptr<tpstream::log::MemFileSystem> fs;
  std::unique_ptr<tpstream::log::EventLog> wal;
  std::unique_ptr<tpstream::log::RecoveryManager> mgr;
  int64_t append_errors = 0;  // events whose append failed

  /// Opens a fresh log + recovery manager; exits on failure (a broken
  /// fixture is a harness bug, not a measurement).
  static Durable Open();
  /// Reopens log and manager on the same filesystem (after a crash).
  void Reopen();
  void Append(std::span<const Event> events) {
    auto r = wal->Append(events);
    if (!r.ok()) append_errors += static_cast<int64_t>(events.size());
  }
};

[[noreturn]] inline void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), s.ToString().c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Layer ledger.

enum Layer : int {
  kLog,
  kOoo,
  kDerive,
  kMatcher,
  kMulti,
  kCkpt,
  kParallel,
  kSink,
  kNumLayers,
};

/// Single-threaded span recorder. A root span starts a tree with a
/// weight: 1 for calls timed every time (per-batch calls), kSampleEvery
/// for per-event calls timed on every kSampleEvery-th event only. Nested
/// spans inherit the weight and are skipped when no root is open, so an
/// unsampled event costs one branch per call site. Self time of a span
/// is its duration minus its children's; the clock-read cost a span adds
/// to its own and its parent's duration is measured once (Calibrate) and
/// taken out, so sampled totals scale without the instrumentation.
/// Work too small to span (the sink, a few ns per result) is measured
/// apart and moved out of its caller's self time (Attribute).
class Tracer {
 public:
  static constexpr int kSampleEvery = 16;

  void Calibrate();
  bool open() const { return depth_ > 0; }
  void Root(Layer layer, int64_t weight) {
    weight_ = weight;
    Warm();
    Enter(layer);
  }
  /// Per-event sampling decision: a hash of the event index, so samples
  /// do not line up with batch boundaries or other periodic work.
  static bool Sampled(int64_t index) {
    return Mix(static_cast<uint64_t>(index)) % kSampleEvery == 0;
  }
  void Enter(Layer layer) { stack_[depth_++] = Frame{layer, Ticks(), 0}; }
  void Exit() {
    const Frame f = stack_[--depth_];
    const int64_t d = Ticks() - f.start;
    self_[f.layer] += (d - f.child) * weight_;
    spans_[f.layer] += weight_;
    if (depth_ > 0) {
      stack_[depth_ - 1].child += d;
      children_[stack_[depth_ - 1].layer] += weight_;
    }
  }
  /// Estimated self time of `layer` over everything recorded, in ns.
  double SelfNs(Layer layer) const {
    return (static_cast<double>(self_[layer]) -
            static_cast<double>(spans_[layer]) * inner_ -
            static_cast<double>(children_[layer]) * (outer_ - inner_)) *
               ns_per_tick_ +
           moved_ns_[layer];
  }
  /// Moves `ns` of self time from `from` (the caller) to `to`.
  void Attribute(Layer from, Layer to, double ns) {
    moved_ns_[from] -= ns;
    moved_ns_[to] += ns;
  }
  double TotalNs() const {
    double t = 0;
    for (int l = 0; l < kNumLayers; ++l) t += SelfNs(static_cast<Layer>(l));
    return t;
  }
  void Clear() {
    std::fill(std::begin(self_), std::end(self_), 0);
    std::fill(std::begin(spans_), std::end(spans_), 0);
    std::fill(std::begin(children_), std::end(children_), 0);
    std::fill(std::begin(moved_ns_), std::end(moved_ns_), 0.0);
  }

 private:
  struct Frame {
    Layer layer;
    int64_t start;
    int64_t child;
  };
  /// Loads the span bookkeeping into cache before the first clock read
  /// of a tree: on a sampled event it is cold, and its misses would land
  /// inside the spans and scale up with the sampling weight.
  void Warm() {
    int64_t touch = 0;
    for (int l = 0; l < kNumLayers; ++l) {
      touch += self_[l] + spans_[l] + children_[l];
    }
    for (const Frame& f : stack_) touch += f.start;
    warm_sink_ = touch;
  }

  Frame stack_[16] = {};
  int depth_ = 0;
  int64_t warm_sink_ = 0;
  int64_t weight_ = 1;
  int64_t self_[kNumLayers] = {};  // ticks
  int64_t spans_[kNumLayers] = {};
  int64_t children_[kNumLayers] = {};
  double moved_ns_[kNumLayers] = {};
  double inner_ = 0;  // ticks: measured duration of an empty span
  double outer_ = 0;  // ticks: what an empty child adds to its parent
  double ns_per_tick_ = 1;
};

/// Mean ns per call of `fn` over `sample`, the calls looped for about
/// 20 ms so the clock reads vanish in the total.
template <typename Fn>
double NsPerCall(const std::vector<Event>& sample, Fn&& fn) {
  if (sample.empty()) return 0;
  int64_t calls = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (t1 - t0 < 20'000'000) {
    for (const Event& e : sample) fn(e);
    calls += static_cast<int64_t>(sample.size());
    t1 = NowNs();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

/// The tracer of the current traced trial; null in untraced trials, so
/// every span site below is one predictable branch there.
extern Tracer* g_tracer;

/// Root span for a per-batch call: always timed when tracing.
class BatchSpan {
 public:
  explicit BatchSpan(Layer layer) : on_(g_tracer != nullptr) {
    if (on_) g_tracer->Root(layer, 1);
  }
  ~BatchSpan() {
    if (on_) g_tracer->Exit();
  }
  BatchSpan(const BatchSpan&) = delete;
  BatchSpan& operator=(const BatchSpan&) = delete;

 private:
  bool on_;
};

/// Root span for a per-event call: timed on one event in kSampleEvery
/// (Tracer::Sampled of the caller's event index).
class EventSpan {
 public:
  EventSpan(Layer layer, int64_t index)
      : on_(g_tracer != nullptr && Tracer::Sampled(index)) {
    if (on_) g_tracer->Root(layer, Tracer::kSampleEvery);
  }
  ~EventSpan() {
    if (on_) g_tracer->Exit();
  }
  EventSpan(const EventSpan&) = delete;
  EventSpan& operator=(const EventSpan&) = delete;

 private:
  bool on_;
};

/// Nested span: timed only inside an open (sampled or batch) root.
class Span {
 public:
  explicit Span(Layer layer) : on_(g_tracer != nullptr && g_tracer->open()) {
    if (on_) g_tracer->Enter(layer);
  }
  ~Span() {
    if (on_) g_tracer->Exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// Report: metrics by name and unit, plus the final JSON line.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Prints each metric as a readable line, then the result object as
  /// the last line of standard output.
  void Print(const Checks& checks) const;

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Host speed.

/// Three reference kernels that call no library code but do the kind
/// of work the engine does: integer arithmetic plus a 64 KiB sort, a
/// std::map keyed by short strings (allocation, string compares, pointer
/// chasing through ~2 MiB), and hashing a vector of std::variant values.
/// On a shared host other tenants' load moves the machine's speed by
/// tens of percent in phases of seconds to minutes, for these kernels as
/// for the program, so their times index the host's speed of the moment.
class HostProbe {
 public:
  /// Times each kernel once.
  void Sample();
  /// Geometric mean over the kernels of their median time over the
  /// reference time (kReference*Ns): 1 on the reference host, 1.3 on a
  /// host 30% slower.
  double Index() const;
  std::string Describe() const;

 private:
  std::vector<double> compute_ns_, map_ns_, variant_ns_;
};

// ---------------------------------------------------------------------------
// Machine fingerprint.

std::string CpuModel();
int NumCpus();
int64_t PeakRssKb();

}  // namespace tpbench

#endif  // TPSTREAM_PERFBENCH_HARNESS_H_
