// The workload interface the driver runs, and the open-loop latency
// probe shared by every workload's sink.
#ifndef TPSTREAM_PERFBENCH_WORKLOAD_H_
#define TPSTREAM_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace tpbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;  // tiny inputs, for the benchmark's own tests
};

/// Latency distribution in fixed memory: 1024 log-spaced buckets per
/// octave (0.07% wide), so quantiles keep their digits without storing
/// every sample and memory does not grow with the result count.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Index(std::min<uint64_t>(ns, kMax))];
    ++total_;
  }
  int64_t count() const { return total_; }
  /// Quantile in ns, interpolated inside the bucket that holds it.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr uint64_t kMax = (uint64_t{1} << 40) - 1;
  static size_t Index(uint64_t v) {
    if (v < kSub) return v;
    const int e = 63 - __builtin_clzll(v) - kSubBits;
    return kSub * static_cast<size_t>(e + 1) + ((v >> e) - kSub);
  }
  static double Lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t e = i / kSub - 1;
    return static_cast<double>((kSub + i % kSub) << e);
  }
  std::vector<int64_t> counts_ = std::vector<int64_t>(kSub * 32, 0);
  int64_t total_ = 0;
};

/// Open-loop latency samples: each result's sink receipt time minus the
/// scheduled creation time of the input event whose timestamp is the
/// result's detection time. Sinks on worker threads call Record under
/// the engine's output serialization, so one probe needs no lock.
///
/// With `track_work` (a path that runs on the driving thread alone) each
/// sample also keeps its work part: the time between the detecting
/// event's push and the result spent inside Push/Finish calls, as opposed
/// to idle polling while the schedule had nothing due. Histogram scales
/// only that part by the host index; the waits the schedule imposes
/// (reorder slack, ticks) do not stretch with the host.
class LatencyProbe {
 public:
  /// Event `first_index` is due at `start_ns`, each later one
  /// `ns_per_event` after its predecessor; `count` events in all.
  void Start(int64_t start_ns, double ns_per_event, size_t first_index,
             size_t count, bool track_work) {
    start_ns_ = start_ns;
    ns_per_event_ = ns_per_event;
    first_index_ = static_cast<int64_t>(first_index);
    track_work_ = track_work;
    busy_ns_ = 0;
    push_start_ = -1;
    busy_at_.assign(track_work ? count : 0, 0);
    samples_.clear();  // keeps its capacity: memory stays flat over sub-runs
    on_ = true;
  }
  void Stop() { on_ = false; }
  /// The driving thread starts pushing events [begin, end) (indexes
  /// relative to first_index; empty for Finish).
  void BeginPush(int64_t now, size_t begin, size_t end) {
    if (!track_work_) return;
    for (size_t i = begin; i < end; ++i) busy_at_[i] = busy_ns_;
    push_start_ = now;
  }
  void EndPush(int64_t now) {
    if (!track_work_) return;
    busy_ns_ += now - push_start_;
    push_start_ = -1;
  }
  void Record(int64_t arrival_index) {
    if (!on_) return;
    const int64_t now = NowNs();
    const int64_t i = arrival_index - first_index_;
    const int64_t due =
        start_ns_ + static_cast<int64_t>(static_cast<double>(i) * ns_per_event_);
    const int64_t latency = std::max<int64_t>(0, now - due);
    int64_t work = 0;
    if (track_work_) {
      const int64_t busy = busy_ns_ + (push_start_ >= 0 ? now - push_start_ : 0);
      work = std::clamp<int64_t>(busy - busy_at_[static_cast<size_t>(i)], 0,
                                 latency);
    }
    samples_.push_back(Sample{latency, work});
  }
  /// The sub-run's latencies, each sample's work part divided by
  /// `host_index`.
  LatencyHistogram Histogram(double host_index) const {
    LatencyHistogram h;
    for (const Sample& s : samples_) {
      h.Record(static_cast<uint64_t>(
          static_cast<double>(s.latency - s.work) +
          static_cast<double>(s.work) / host_index));
    }
    return h;
  }

 private:
  struct Sample {
    int64_t latency;
    int64_t work;
  };
  bool on_ = false;
  bool track_work_ = false;
  int64_t start_ns_ = 0;
  double ns_per_event_ = 0;
  int64_t first_index_ = 0;
  int64_t busy_ns_ = 0;     // time inside pushes since Start
  int64_t push_start_ = -1;  // start of the push under way, or -1
  std::vector<int64_t> busy_at_;  // busy_ns_ when each event was pushed
  std::vector<Sample> samples_;
};

/// One fresh instance of a workload's full path, offered the input
/// events [begin, end).
class Trial {
 public:
  Trial(size_t begin, size_t end) : begin(begin), end(end) {}
  virtual ~Trial() = default;
  /// Offers input events [begin, end) (arrival order) to the path: WAL
  /// append, reorder, detection, checkpoints at the workload's cadence.
  virtual void Push(size_t begin, size_t end) = 0;
  /// End of stream: drains reorder buffers and engines.
  virtual void Finish() = 0;

  const size_t begin;
  const size_t end;
};

/// Per-layer measurements that the driver's traced trials feed.
struct TraceInput {
  Tracer* tracer = nullptr;
  double wall_ns = 0;      // summed wall time of the traced trials
  int64_t events = 0;      // events offered across the traced trials
  double untraced_ns = 0;  // median untraced trial wall
  double traced_ns = 0;    // median traced trial wall
  int64_t allocs = 0;      // heap allocations in the traced trials
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and computes the reference
  /// digests (untimed).
  virtual void Prepare(uint64_t seed, bool smoke) = 0;
  /// Input events per trial.
  virtual size_t num_events() const = 0;
  /// Fixed open-loop offered rate, events/s.
  virtual double offered_rate() const = 0;
  /// Whether the whole path runs on the calling thread. Its work is then
  /// timed on the thread's CPU clock (ThreadCpuNs): closed-loop chunks,
  /// set-up and recovery; and the driving thread's idle gaps and push
  /// times stand for host stalls and work in the open loop (OpenLoop,
  /// LatencyProbe). A workload with threads of its own is timed on the
  /// wall clock, and its latencies are taken as they are.
  virtual bool single_threaded() const { return true; }
  /// One timed set-up, in seconds: query parse/build, engine
  /// construction, log and recovery-manager open, first event accepted.
  virtual double TimedSetup() = 0;
  /// Builds a fresh path (untimed) for input events [begin, end): the
  /// whole stream, or one of kSlices open-loop slices. `traced` selects
  /// the decomposed path whose layer calls carry spans; `probe` may be
  /// null.
  virtual std::unique_ptr<Trial> NewTrial(bool traced, LatencyProbe* probe,
                                          size_t begin, size_t end) = 0;
  /// Compares a finished trial's outputs with the reference and counts
  /// its failed events (append errors, late drops, sheds, mismatches).
  virtual void CheckTrial(Trial& trial, Checks* checks) = 0;
  /// Crashes the finished trial's log (after a final sync) and recovers
  /// into a fresh engine; returns the Recover time in seconds (see
  /// single_threaded for the clock) and checks the recovered outputs.
  virtual double CrashAndRecover(Trial& trial, Checks* checks) = 0;
  /// Per-layer metrics from the traced trials (and whatever untraced
  /// trials recorded: checkpoint pauses, recovery reports). Extra passes
  /// run here check their outputs into `checks`.
  virtual void LayerMetrics(const TraceInput& in, Report* report,
                            Checks* checks) = 0;
  /// Extra machine/workload facts printed with every result.
  virtual std::string Describe() const = 0;
};

/// Open-loop sub-runs cycle over this many equal slices of the input,
/// each checked against its own reference; a reported percentile is the
/// median over the sub-runs kept (see MedianSubRun).
constexpr size_t kSlices = 8;

/// Crash recoveries timed per CrashAndRecover call (it returns their
/// median; the run reports the median over its calls).
constexpr int kRecoveryRepetitions = 3;

/// Input range of open-loop slice `k` of `n` events.
inline std::pair<size_t, size_t> SliceBounds(size_t n, size_t k) {
  const size_t m = n / kSlices;
  return {k * m, k + 1 == kSlices ? n : (k + 1) * m};
}

std::unique_ptr<Workload> MakeSynthDense();
std::unique_ptr<Workload> MakeManyRules();
std::unique_ptr<Workload> MakeKeyedParallel();

/// Runs one workload per the config and prints its report.
int RunWorkload(Workload& workload, const RunConfig& config);

/// Syncs a finished trial's log and crashes it (MemFileSystem's power-cut
/// model), then kRecoveryRepetitions times reopens log and manager and
/// calls `recover_once`, which recovers a fresh engine and returns the
/// seconds it timed. Returns their median.
template <typename Fn>
double MedianRecovery(Durable& durable, Fn&& recover_once) {
  if (Status s = durable.wal->Sync(); !s.ok()) Die("sync", s);
  durable.fs->SimulateCrash();
  std::vector<double> times;
  for (int r = 0; r < kRecoveryRepetitions; ++r) {
    durable.Reopen();
    times.push_back(recover_once());
  }
  return Median(times);
}

/// A counter from an obs snapshot; 0 when the component never bumped it.
inline int64_t CounterValue(const tpstream::obs::MetricsSnapshot& snap,
                            const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Output events a decomposed trial keeps to time its sink afterwards.
constexpr size_t kSinkSample = 4096;

/// Self-time per event of `layer` over the traced trials.
inline double LayerNsPerEvent(const TraceInput& in, Layer layer) {
  return in.events > 0 ? in.tracer->SelfNs(layer) / in.events : 0.0;
}

/// Checkpoint pauses (p99 of every RecoveryManager::Checkpoint call
/// timed) and the median file size of full and delta checkpoints.
inline void AddCheckpointMetrics(Report* r, const std::vector<double>& pause_us,
                                 const std::vector<uint64_t>& full_bytes,
                                 const std::vector<uint64_t>& delta_bytes) {
  r->Add("ckpt.pause_p99_us", Quantile(pause_us, 0.99), "us");
  r->Add("ckpt.full_bytes", Median(full_bytes), "B");
  r->Add("ckpt.delta_bytes", Median(delta_bytes), "B");
}

}  // namespace tpbench

#endif  // TPSTREAM_PERFBENCH_WORKLOAD_H_
