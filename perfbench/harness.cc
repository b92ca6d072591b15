#include "harness.h"

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <variant>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace tpbench {

Tracer* g_tracer = nullptr;

#ifndef TPBENCH_TRACED
int64_t ThreadAllocCount() { return 0; }
#endif

uint64_t HashEvent(const Event& e) {
  uint64_t h = Mix(static_cast<uint64_t>(e.t));
  for (const tpstream::Value& v : e.payload) {
    uint64_t x = static_cast<uint64_t>(v.type());
    switch (v.type()) {
      case tpstream::ValueType::kInt:
        x ^= Mix(static_cast<uint64_t>(v.AsInt()));
        break;
      case tpstream::ValueType::kDouble:
        x ^= Mix(std::bit_cast<uint64_t>(v.AsDouble()));
        break;
      case tpstream::ValueType::kBool:
        x ^= Mix(v.AsBool() ? 1 : 2);
        break;
      case tpstream::ValueType::kString:
        x ^= Mix(std::hash<std::string>{}(v.AsString()));
        break;
      case tpstream::ValueType::kNull:
        break;
    }
    h = Mix(h ^ x);
  }
  return h;
}

Durable Durable::Open() {
  Durable d;
  d.fs = std::make_unique<tpstream::log::MemFileSystem>();
  d.Reopen();
  return d;
}

void Durable::Reopen() {
  mgr.reset();
  wal.reset();
  tpstream::log::EventLogOptions options;
  options.sync.mode = tpstream::log::SyncMode::kEveryBytes;
  // MemFileSystem keeps each segment in one growing string; 1 MiB
  // segments keep its reallocation copies short (4 MiB ones stalled the
  // open loop for milliseconds at each doubling).
  options.segment_bytes = 1 << 20;
  Status s = tpstream::log::EventLog::Open(fs.get(), "/wal", options, &wal);
  if (!s.ok()) Die("wal open", s);
  s = tpstream::log::RecoveryManager::Open(fs.get(), "/wal/ckpt", wal.get(),
                                           {}, &mgr);
  if (!s.ok()) Die("recovery manager open", s);
}

void Tracer::Calibrate() {
  // Tick rate against steady_clock over 50 ms.
  const int64_t n0 = NowNs(), k0 = Ticks();
  while (NowNs() - n0 < 50'000'000) {
  }
  const int64_t n1 = NowNs(), k1 = Ticks();
  ns_per_tick_ = static_cast<double>(n1 - n0) / static_cast<double>(k1 - k0);
  // A span around a short piece of work measures the clock-read cost
  // it adds to its own duration (inner); a parent holding one such
  // child, minus a parent holding the work directly, measures what a
  // child adds to its parent (outer). The work keeps the pipeline busy
  // as real calls do; medians over blocks resist preemption.
  Tracer* saved = g_tracer;
  g_tracer = this;
  constexpr int kBlocks = 15;
  constexpr int kIters = 4000;
  uint64_t sink = 1;
  auto work = [&sink] {
    for (int i = 0; i < 32; ++i) sink = sink * 6364136223846793005ULL + i;
  };
  std::vector<double> inner, outer;
  for (int b = 0; b < kBlocks; ++b) {
    int64_t t0 = Ticks();
    for (int i = 0; i < kIters; ++i) work();
    const double bare_work = static_cast<double>(Ticks() - t0) / kIters;
    Clear();
    for (int i = 0; i < kIters; ++i) {
      Root(kLog, 1);
      work();
      Exit();
    }
    const double direct = static_cast<double>(self_[kLog]) / kIters;
    inner.push_back(direct - bare_work);
    Clear();
    for (int i = 0; i < kIters; ++i) {
      Root(kLog, 1);
      Enter(kSink);
      work();
      Exit();
      Exit();
    }
    const double nested =
        static_cast<double>(self_[kLog] + self_[kSink]) / kIters;
    outer.push_back(nested - direct);
  }
  Clear();
  inner_ = Median(inner);
  outer_ = Median(outer);
  g_tracer = saved;
  if (sink == 42) std::fputs("", stderr);  // keeps the work observable
}

void Report::Print(const Checks& checks) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checks.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, checks.offered));
  json += ", \"failed\": " + std::to_string(checks.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

namespace {

// Median kernel times on the 4-vCPU Intel Xeon of the README's
// measurements (host index 1). Only a scale.
constexpr double kReferenceComputeNs = 1.7e6;
constexpr double kReferenceMapNs = 16.8e6;
constexpr double kReferenceVariantNs = 5.4e6;

double ComputeKernel() {
  static std::vector<uint32_t> keys(size_t{1} << 14);
  const int64_t t0 = NowNs();
  uint64_t a = 1, b = 2;
  for (int i = 0; i < 250'000; ++i) {
    a = a * 6364136223846793005ULL + b;
    b ^= a >> 17;
  }
  for (uint32_t& k : keys) k = static_cast<uint32_t>(Mix(a++));
  std::sort(keys.begin(), keys.end());
  const int64_t t1 = NowNs();
  static volatile uint64_t sink;
  sink = b + keys[b % keys.size()];
  return static_cast<double>(t1 - t0);
}

double MapKernel() {
  const int64_t t0 = NowNs();
  std::map<std::string, int64_t> m;
  uint64_t r = 12345;
  for (int i = 0; i < 20'000; ++i) {
    m["key" + std::to_string(Mix(r++) % 1'000'000)] += i;
  }
  int64_t found = 0;
  for (int i = 0; i < 20'000; ++i) {
    auto it = m.find("key" + std::to_string(Mix(r++) % 1'000'000));
    if (it != m.end()) found += it->second;
  }
  m.clear();
  const int64_t t1 = NowNs();
  static volatile int64_t sink;
  sink = found;
  return static_cast<double>(t1 - t0);
}

double VariantKernel() {
  const int64_t t0 = NowNs();
  std::vector<std::variant<int64_t, double, std::string>> values;
  values.reserve(100'000);
  for (uint64_t i = 0; i < 100'000; ++i) {
    const uint64_t r = Mix(i);
    if (r % 3 == 0) {
      values.emplace_back(static_cast<int64_t>(r));
    } else if (r % 3 == 1) {
      values.emplace_back(static_cast<double>(r) * 0.5);
    } else {
      values.emplace_back(std::to_string(r % 100'000));
    }
  }
  uint64_t h = 0;
  for (const auto& v : values) {
    h = Mix(h ^ std::visit(
                    [](const auto& x) -> uint64_t {
                      using T = std::decay_t<decltype(x)>;
                      if constexpr (std::is_same_v<T, std::string>) {
                        return std::hash<std::string>{}(x);
                      } else if constexpr (std::is_same_v<T, double>) {
                        return std::bit_cast<uint64_t>(x);
                      } else {
                        return static_cast<uint64_t>(x);
                      }
                    },
                    v));
  }
  values.clear();
  const int64_t t1 = NowNs();
  static volatile uint64_t sink;
  sink = h;
  return static_cast<double>(t1 - t0);
}

}  // namespace

void HostProbe::Sample() {
  compute_ns_.push_back(ComputeKernel());
  map_ns_.push_back(MapKernel());
  variant_ns_.push_back(VariantKernel());
}

double HostProbe::Index() const {
  if (compute_ns_.empty()) return 1;
  return std::cbrt(Median(compute_ns_) / kReferenceComputeNs *
                   Median(map_ns_) / kReferenceMapNs *
                   Median(variant_ns_) / kReferenceVariantNs);
}

std::string HostProbe::Describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "host_index=%.4f compute_us=%.1f map_us=%.1f variant_us=%.1f "
                "samples=%zu",
                Index(), Median(compute_ns_) / 1e3, Median(map_ns_) / 1e3,
                Median(variant_ns_) / 1e3, compute_ns_.size());
  return buf;
}

int NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int64_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

}  // namespace tpbench
