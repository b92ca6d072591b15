// Ablation: cost and benefit of low-latency matching (Section 5.3). The
// paper claims that the power-set combination building of Algorithm 4
// "has only minimal impact on the runtime performance" — this harness
// quantifies it: the same workload and query run once with the baseline
// matcher (detection at end timestamps) and once with the low-latency
// matcher, reporting throughput, match counts and the average
// application-time detection gain. A second section measures the
// adaptive optimizer's bookkeeping overhead on a stable workload
// (paper: < 2%).
// Flags: --events=N
#include <cstdio>
#include <map>

#include "algebra/detection.h"
#include "bench/bench_util.h"
#include "core/operator.h"

namespace tpstream {
namespace bench {
namespace {

TemporalPattern AblationPattern() {
  TemporalPattern p({"A", "B", "C"});
  (void)p.AddRelation(0, Relation::kBefore, 1);
  (void)p.AddRelation(1, Relation::kOverlaps, 2);
  (void)p.AddRelation(1, Relation::kContains, 2);
  (void)p.AddRelation(1, Relation::kFinishes, 2);
  return p;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int64_t events = flags.GetInt("events", 2000000);
  const Duration window = 5000;

  std::printf(
      "# Ablation: low-latency matching on/off, %lld synthetic events\n"
      "# pattern: A before B AND (B overlaps C; B contains C; "
      "B finishes C)\n"
      "# columns: mode  time_ms  kevents_s  matches  avg_gain_s\n",
      static_cast<long long>(events));

  const TemporalPattern pattern = AblationPattern();
  // Configuration identity: the per-symbol start timestamps.
  using Key = std::vector<TimePoint>;
  std::map<Key, TimePoint> detections[2];  // [0]=baseline, [1]=low latency

  for (const bool low_latency : {false, true}) {
    QuerySpec spec = SyntheticSpec(3, pattern, window);
    TPStreamOperator::Options options;
    options.low_latency = low_latency;
    TPStreamOperator op(spec, options, nullptr);
    std::map<Key, TimePoint>& mine = detections[low_latency ? 1 : 0];
    op.SetMatchObserver([&mine](const Match& m) {
      Key key;
      key.reserve(m.size());
      for (const Situation* s : m.situations) key.push_back(s->ts);
      mine.emplace(std::move(key), m.detected_at);
    });

    SyntheticGenerator::Options gopts;
    gopts.num_streams = 3;
    SyntheticGenerator gen(gopts);
    const double ms = TimeMs([&] {
      for (int64_t i = 0; i < events; ++i) op.Push(gen.Next());
    });

    // Average application-time gain over matches both modes report.
    double gain_sum = 0;
    int64_t gains = 0;
    if (low_latency) {
      for (const auto& [key, base_t] : detections[0]) {
        auto it = mine.find(key);
        if (it == mine.end()) continue;
        gain_sum += static_cast<double>(base_t - it->second);
        ++gains;
      }
    }
    std::printf("%-12s %9.1f %10.0f %9lld %10.1f\n",
                low_latency ? "low-latency" : "baseline", ms,
                events / std::max(ms, 0.001),
                static_cast<long long>(op.num_matches()),
                gains > 0 ? gain_sum / gains : 0.0);
    std::fflush(stdout);
  }

  std::printf(
      "\n# Adaptive optimizer bookkeeping on a stable workload\n"
      "# columns: mode  time_ms  kevents_s  migrations\n");
  for (const bool adaptive : {false, true}) {
    QuerySpec spec = SyntheticSpec(3, pattern, window);
    TPStreamOperator::Options options;
    options.adaptive = adaptive;
    if (!adaptive) options.fixed_order = std::vector<int>{1, 2, 0};
    TPStreamOperator op(spec, options, nullptr);
    SyntheticGenerator::Options gopts;
    gopts.num_streams = 3;
    SyntheticGenerator gen(gopts);
    const double ms = TimeMs([&] {
      for (int64_t i = 0; i < events; ++i) op.Push(gen.Next());
    });
    std::printf("%-12s %9.1f %10.0f %9lld\n",
                adaptive ? "adaptive" : "pinned", ms,
                events / std::max(ms, 0.001),
                static_cast<long long>(op.plan_migrations()));
    std::fflush(stdout);
  }
  std::printf(
      "# expected shape: low-latency matches a superset at comparable\n"
      "# throughput (the paper: minimal impact) with a large positive\n"
      "# detection gain; adaptive bookkeeping costs <2%% on stable "
      "load.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) { return tpstream::bench::Run(argc, argv); }
