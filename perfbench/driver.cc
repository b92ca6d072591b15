// The run plan shared by every workload: set-up repetitions, closed-loop
// trials, open-loop sub-runs at the workload's fixed rate, crash
// recovery, and (traced binary) the layer ledger.
#include <malloc.h>

#include <climits>
#include <cstdio>
#include <utility>

#include "workload.h"

namespace tpbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every name a traced run reports; a layer that does not run on a
// workload reports 0.
constexpr MetricName kLayerMetrics[] = {
    {"load.lag_p99_us", "us"},
    {"load.latency_samples", "count"},
    {"log.append_ns_per_event", "ns"},
    {"log.bytes_per_event", "B"},
    {"log.syncs_per_mevent", "1/Mevt"},
    {"ooo.self_ns_per_event", "ns"},
    {"ooo.reordered", "count"},
    {"ooo.buffered_max", "count"},
    {"derive.self_ns_per_event", "ns"},
    {"derive.situations_per_kevent", "1/kevt"},
    {"derive.predicate_evals_per_event", "count"},
    {"matcher.self_ns_per_event", "ns"},
    {"matcher.ns_per_match", "ns"},
    {"matcher.consume_ratio", "ratio"},
    {"matcher.matches_per_event", "count"},
    {"matcher.buffered_max", "count"},
    {"optimizer.plan_migrations", "count"},
    {"multi.self_ns_per_event", "ns"},
    {"multi.distinct_def_ratio", "ratio"},
    {"multi.plan_cache_hit_ratio", "ratio"},
    {"ckpt.pause_p99_us", "us"},
    {"ckpt.full_bytes", "B"},
    {"ckpt.delta_bytes", "B"},
    {"log.recovery_replayed_events", "count"},
    {"log.recovery_deltas_applied", "count"},
    {"parallel.producer_ns_per_event", "ns"},
    {"parallel.ring_full_per_mevent", "1/Mevt"},
    {"parallel.flush_wait_ms", "ms"},
    {"parallel.worker_match_skew", "ratio"},
    {"parallel.speedup_vs_seq", "ratio"},
    {"query.compile_ms", "ms"},
    {"sink.ns_per_event", "ns"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"alloc.per_event", "count"},
};

constexpr size_t kBatch = 256;
constexpr size_t kChunkBatches = 64;  // closed-loop timing granularity

/// Runs every event of a fresh trial through the path as fast as it
/// goes; returns the wall time in ns and, in `chunks`, the time of each
/// kChunkBatches batches (the last chunk includes Finish) on the
/// thread's CPU clock if `cpu_clock`, else on the wall clock. Input
/// generation is not timed.
int64_t ClosedLoop(Trial& trial, bool cpu_clock, std::vector<int64_t>* chunks) {
  chunks->clear();
  auto clock = [cpu_clock] { return cpu_clock ? ThreadCpuNs() : NowNs(); };
  const int64_t t0 = NowNs();
  int64_t mark = clock();
  size_t batches = 0;
  for (size_t i = trial.begin; i < trial.end; i += kBatch) {
    trial.Push(i, std::min(trial.end, i + kBatch));
    if (++batches % kChunkBatches == 0 && i + kBatch < trial.end) {
      const int64_t now = clock();
      chunks->push_back(now - mark);
      mark = now;
    }
  }
  trial.Finish();
  chunks->push_back(clock() - mark);
  return NowNs() - t0;
}

/// Time of the whole stream with each chunk at its median over trials:
/// every trial does the same work chunk by chunk, so a burst from
/// another tenant that slows some trials at some chunk drops out.
double ChunkMedianTotal(const std::vector<std::vector<int64_t>>& trials) {
  double total = 0;
  for (size_t c = 0; c < trials.front().size(); ++c) {
    std::vector<int64_t> at;
    for (const auto& t : trials) at.push_back(t[c]);
    total += Median(at);
  }
  return total;
}

/// One open-loop sub-run: its latency percentiles and the share of its
/// wall time the driving thread was kept off its CPU.
struct SubRun {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double host_stall = 0;
};

/// Median percentiles over the sub-runs kept: with `calmest_half`, the
/// half with the least host stall, else all. On a shared host the
/// hypervisor takes the virtual CPU away for several ms at a time, a few
/// times a second in a busy phase; every event due meanwhile waits, and
/// a high percentile then measures the host rather than the program.
/// The sub-runs are chosen by the stall the poll loop observed, never
/// by their latency, so a slower program still moves the result in
/// full. The stall only means host time where the path has no threads
/// of its own: otherwise a worker woken onto the driving thread's CPU
/// shows as a stall too, and that is the program's doing.
SubRun MedianSubRun(std::vector<SubRun> runs, bool calmest_half) {
  std::sort(runs.begin(), runs.end(), [](const SubRun& a, const SubRun& b) {
    return a.host_stall < b.host_stall;
  });
  if (calmest_half) runs.resize(std::max<size_t>(1, runs.size() / 2));
  auto median = [&runs](double SubRun::*field) {
    std::vector<double> v;
    for (const SubRun& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  return SubRun{median(&SubRun::p50_us), median(&SubRun::p90_us),
                median(&SubRun::p99_us), median(&SubRun::host_stall)};
}

/// A gap between two idle polls longer than this is time the thread was
/// off its CPU: an idle poll takes tens of ns, an interrupt a few us.
constexpr int64_t kStallNs = 50'000;

/// Offers the events on a fixed schedule (event i due at start + i /
/// rate). Each tick pushes every event already due, so a stall makes
/// later events wait and shows in their latency. `lags` records, per
/// tick, how late the oldest due event was offered. Returns the share
/// of the sub-run's wall time that fell in gaps between idle polls
/// longer than kStallNs (gaps that contain a push are not counted).
double OpenLoop(Trial& trial, double rate, bool track_work,
                LatencyProbe* probe, LatencyHistogram* lags) {
  const double ns_per_event = 1e9 / rate;
  const int64_t start = NowNs() + 1'000'000;
  const size_t n = trial.end - trial.begin;
  probe->Start(start, ns_per_event, trial.begin, n, track_work);
  size_t next = 0;  // relative to trial.begin
  int64_t stalled = 0;
  int64_t last_idle_poll = -1;  // -1: the previous poll pushed
  while (next < n) {
    const int64_t now = NowNs();
    if (last_idle_poll >= 0 && now - last_idle_poll > kStallNs) {
      stalled += now - last_idle_poll;
    }
    last_idle_poll = -1;
    const int64_t due_next =
        start + static_cast<int64_t>(static_cast<double>(next) * ns_per_event);
    if (now < due_next) {
      last_idle_poll = now;
      continue;
    }
    const size_t due = std::min(
        n, static_cast<size_t>(static_cast<double>(now - start) / ns_per_event) + 1);
    lags->Record(static_cast<uint64_t>(now - due_next));
    probe->BeginPush(now, next, due);
    trial.Push(trial.begin + next, trial.begin + due);
    probe->EndPush(NowNs());
    next = due;
  }
  probe->BeginPush(NowNs(), n, n);
  trial.Finish();
  probe->EndPush(NowNs());
  probe->Stop();
  return static_cast<double>(stalled) /
         static_cast<double>(std::max<int64_t>(1, NowNs() - start));
}

void PrintInfo(const Workload& w, const RunConfig& config, size_t events) {
  std::printf("info workload=%s seed=%llu seconds=%d trace=%d smoke=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? 1 : 0);
  std::printf("info cpu_model=\"%s\" nproc=%d events_per_run=%zu "
              "offered_rate_evt_s=%.0f %s\n",
              CpuModel().c_str(), NumCpus(), events, w.offered_rate(),
              w.Describe().c_str());
}

}  // namespace

double LatencyHistogram::Quantile(double q) const {
  if (total_ == 0) return 0;
  const double rank = q * static_cast<double>(total_ - 1);
  int64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const int64_t c = counts_[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(below + c)) {
      const double frac = (rank - static_cast<double>(below) + 0.5) / c;
      return Lower(i) + (Lower(i + 1) - Lower(i)) * frac;
    }
    below += c;
  }
  return Lower(counts_.size() - 1);
}

int RunWorkload(Workload& w, const RunConfig& config) {
  // Keep freed memory mapped: every trial then reuses the pages of the
  // one before instead of faulting fresh ones in, which on a virtual
  // machine costs a varying amount and would blur every timing.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Checks checks;
  w.Prepare(config.seed, config.smoke);
  const size_t n = w.num_events();
  PrintInfo(w, config, n);
  const int64_t budget_ns = static_cast<int64_t>(config.seconds) * 1'000'000'000;
  Report report;

  // The run is a sequence of rounds, each taking a sample of every
  // measurement: a closed-loop trial (the traced binary adds a decomposed,
  // span-carrying one, so both see the same machine state), open-loop
  // sub-runs, crash recoveries of the closed-loop trial, and set-up
  // repetitions. The host's speed drifts over seconds; interleaving gives
  // every metric the same mix of machine states, and each median spans
  // the whole run instead of one stretch of it.
  std::vector<double> walls, traced_walls, recoveries, setups;
  std::vector<std::vector<int64_t>> chunk_ns;
  std::vector<int64_t> chunks;
  Tracer tracer;
  if (config.trace) tracer.Calibrate();
  TraceInput in;
  in.tracer = &tracer;
  LatencyProbe probe;
  std::vector<SubRun> subrun_latency;
  LatencyHistogram lags;
  int64_t samples = 0;
  size_t subruns = 0;
  int64_t setup_ns = 0;
  // Untraced runs report time metrics at the reference host's speed.
  std::unique_ptr<HostProbe> host;
  if (!config.trace) host = std::make_unique<HostProbe>();
  const size_t min_rounds = config.smoke ? 1 : kSlices;
  const size_t subruns_per_round = config.trace ? 1 : 2;
  const int64_t run_start = NowNs();
  while ((NowNs() - run_start < budget_ns || walls.size() < min_rounds) &&
         walls.size() < 200) {
    if (host) {
      for (int i = 0; i < 3; ++i) host->Sample();
    }
    std::unique_ptr<Trial> trial = w.NewTrial(false, nullptr, 0, n);
    walls.push_back(static_cast<double>(
        ClosedLoop(*trial, w.single_threaded(), &chunks)));
    chunk_ns.push_back(chunks);
    checks.offered += static_cast<int64_t>(n);
    w.CheckTrial(*trial, &checks);
    if (config.trace) {
      std::unique_ptr<Trial> traced = w.NewTrial(true, nullptr, 0, n);
      g_tracer = &tracer;
      const int64_t allocs0 = ThreadAllocCount();
      const int64_t wall = ClosedLoop(*traced, w.single_threaded(), &chunks);
      in.allocs += ThreadAllocCount() - allocs0;
      g_tracer = nullptr;
      traced_walls.push_back(static_cast<double>(wall));
      in.wall_ns += static_cast<double>(wall);
      in.events += static_cast<int64_t>(n);
      checks.offered += static_cast<int64_t>(n);
      w.CheckTrial(*traced, &checks);
    }

    // Open loop at the workload's fixed rate, cycling over the slices.
    for (size_t s = 0; s < subruns_per_round; ++s) {
      const auto [begin, end] = SliceBounds(n, subruns++ % kSlices);
      std::unique_ptr<Trial> open = w.NewTrial(false, &probe, begin, end);
      const double stall = OpenLoop(*open, w.offered_rate(),
                                    w.single_threaded(), &probe, &lags);
      checks.offered += static_cast<int64_t>(end - begin);
      w.CheckTrial(*open, &checks);
      // Work parts at the reference host's speed, by the index so far.
      const LatencyHistogram h = probe.Histogram(host ? host->Index() : 1.0);
      checks.Expect(h.count() > 0, "open loop produced latency samples", 0);
      samples += h.count();
      subrun_latency.push_back(SubRun{h.Quantile(0.50) / 1e3,
                                      h.Quantile(0.90) / 1e3,
                                      h.Quantile(0.99) / 1e3, stall});
    }

    recoveries.push_back(w.CrashAndRecover(*trial, &checks));

    if (config.trace) continue;
    // Set-up is short: repeat it until it has taken a twentieth of the
    // time so far.
    for (int reps = 0;
         reps < 5 || (setup_ns < (NowNs() - run_start) / 20 && reps < 400);
         ++reps) {
      const int64_t t0 = NowNs();
      setups.push_back(w.TimedSetup());
      setup_ns += NowNs() - t0;
    }
  }
  const double recovery_s = Median(recoveries);

  if (!config.trace) {
    // Work times at the reference host's speed: divided by the host
    // index (rates multiplied). The probe runs no library code, so a
    // change in the program moves these in full, while a host phase that
    // slows program and kernels alike drops out. Latencies were scaled
    // per sample, in their work part only (LatencyProbe::Histogram).
    const double index = host->Index();
    const double events_per_s =
        static_cast<double>(n) / (ChunkMedianTotal(chunk_ns) / 1e9);
    report.Add("events_per_s", events_per_s * index, "evt/s");
    const SubRun kept = MedianSubRun(subrun_latency, w.single_threaded());
    report.Add("latency_p50_us", kept.p50_us, "us");
    report.Add("latency_p90_us", kept.p90_us, "us");
    report.Add("setup_s", Median(setups) / index, "s");
    report.Add("recovery_s", recovery_s / index, "s");
    report.Add("peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MiB");
    std::printf("info %s measured events_per_s=%.6g setup_s=%.6g "
                "recovery_s=%.6g\n",
                host->Describe().c_str(), events_per_s, Median(setups),
                recovery_s);
    std::printf("info closed_trials=%zu trial_ms_min=%.1f trial_ms_median=%.1f "
                "trial_ms_max=%.1f open_subruns=%zu latency_samples=%lld "
                "load_lag_p99_us=%.3f\n",
                walls.size(), Quantile(walls, 0) / 1e6, Median(walls) / 1e6,
                Quantile(walls, 1) / 1e6, subruns,
                static_cast<long long>(samples), lags.Quantile(0.99) / 1e3);
    std::vector<double> stalls;
    for (const SubRun& r : subrun_latency) stalls.push_back(r.host_stall);
    std::printf("info open_host_stall_min=%.5f open_host_stall_median=%.5f "
                "open_host_stall_max=%.5f kept_stall=%.5f kept_p99_us=%.3f\n",
                Quantile(stalls, 0), Median(stalls), Quantile(stalls, 1),
                kept.host_stall, kept.p99_us);
  } else {
    in.untraced_ns = Median(walls);
    in.traced_ns = Median(traced_walls);
    report.Add("load.lag_p99_us", lags.Quantile(0.99) / 1e3, "us");
    report.Add("load.latency_samples", static_cast<double>(samples), "count");
    report.Add("trace.overhead_ratio", in.traced_ns / in.untraced_ns, "ratio");
    report.Add("alloc.per_event",
               in.events > 0 ? static_cast<double>(in.allocs) / in.events : 0,
               "count");
    w.LayerMetrics(in, &report, &checks);
    Report ordered;
    for (const MetricName& m : kLayerMetrics) {
      double value = 0;
      for (const Metric& have : report.metrics()) {
        if (have.name == m.name) value = have.value;
      }
      ordered.Add(m.name, value, m.unit);
    }
    report = std::move(ordered);
  }
  std::printf("metric %-34s %.6g %s\n", "failed_event_ratio",
              checks.offered > 0
                  ? static_cast<double>(checks.failed) / checks.offered
                  : 0.0,
              "ratio");
  std::printf("info checks_run=%d correct=%d\n", checks.ran, checks.ok ? 1 : 0);
  report.Print(checks);
  return 0;
}

}  // namespace tpbench
