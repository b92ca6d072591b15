// Ablation: binary-search range queries (Section 5.2, Equation 2) versus
// the naive full-buffer scan (Equation 1) inside the matcher's
// findMatches. Both produce identical matches; the paper's design choice
// is that the range-query strategy keeps per-step cost logarithmic in the
// buffer size. The gap therefore must widen with the window.
// Flags: --situations=N --max-window=SECONDS
#include <cstdio>

#include "bench/bench_util.h"
#include "matcher/matcher.h"
#include "workload/interval_source.h"

namespace tpstream {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  // The naive arm is intentionally slow; raise --max-window=50000 for the
  // full sweep (the gap grows to ~30x there).
  const int64_t situations = flags.GetInt("situations", 100000);
  const Duration max_window = flags.GetInt("max-window", 5000);

  TemporalPattern pattern({"A", "B", "C"});
  (void)pattern.AddRelation(0, Relation::kBefore, 1);
  (void)pattern.AddRelation(1, Relation::kOverlaps, 2);

  std::printf(
      "# Ablation: range-query join (Eq. 2) vs naive scan (Eq. 1)\n"
      "# pattern 'A before B overlaps C', %lld situations\n"
      "# columns: window_s  strategy  time_ms  ksituations_s  matches\n",
      static_cast<long long>(situations));

  for (Duration window = 500; window <= max_window; window *= 10) {
    for (const bool naive : {false, true}) {
      std::vector<RandomSituationGenerator::StreamOptions> streams(3);
      RandomSituationGenerator gen(streams, 99);
      int64_t matches = 0;
      CallbackSink sink([&](const Match&) { ++matches; });
      Matcher matcher(pattern, window, &sink);
      matcher.SetNaiveScan(naive);
      const double ms = TimeMs([&] {
        for (int64_t i = 0; i < situations; ++i) {
          const SymbolSituation ss = gen.Next();
          matcher.Update({ss}, ss.situation.te);
        }
      });
      std::printf("%8lld  %-12s %10.1f %12.0f %10lld\n",
                  static_cast<long long>(window),
                  naive ? "naive-scan" : "range-query", ms,
                  situations / std::max(ms, 0.001),
                  static_cast<long long>(matches));
      std::fflush(stdout);
    }
  }
  std::printf(
      "# expected shape: identical match counts; the naive scan degrades\n"
      "# roughly linearly with the window while range queries stay "
      "sub-linear.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) { return tpstream::bench::Run(argc, argv); }
