// Shared helpers for the experiment benches.
//
// Every bench builds one bench::Reporter. The Reporter prints the same
// stdout banner/claim lines the benches always had, and on destruction
// additionally writes a machine-readable BENCH_<name>.json next to them
// (into $MHS_BENCH_OUT, or the working directory): schema-versioned
// metrics, claims, machine info, the git revision passed via
// $MHS_GIT_REV, and — when the bench installed the Reporter's registry
// with obs::ScopedRegistry — every counter, histogram, and gauge the run
// recorded. bench_report aggregates and diffs these files.
//
// The Reporter deliberately does NOT install its registry itself:
// benches that measure tracing overhead need their untraced runs to stay
// untraced, so opting in is a per-scope decision.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/table.h"
#include "ir/cdfg.h"
#include "obs/obs.h"

namespace mhs::bench {

/// Random sample inputs for a kernel (one vector per sample, cdfg-input
/// order), reproducible from the seed.
inline std::vector<std::vector<std::int64_t>> make_samples(
    const ir::Cdfg& kernel, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }
  return samples;
}

/// Which way a metric is "better" — bench_report uses this to decide
/// whether a baseline delta is a regression.
enum class Direction {
  kLowerIsBetter,   ///< wall times, event counts, overhead
  kHigherIsBetter,  ///< speedups, hit rates, throughput
  kInfo,            ///< descriptive; never a regression
};

inline const char* direction_name(Direction d) {
  switch (d) {
    case Direction::kLowerIsBetter:  return "lower";
    case Direction::kHigherIsBetter: return "higher";
    case Direction::kInfo:           return "info";
  }
  return "info";
}

/// Collects a bench's metrics and claims, mirrors them to stdout, and
/// writes BENCH_<name>.json when destroyed (or when write() is called).
class Reporter {
 public:
  /// `name` must be the bench executable's name — it names the JSON
  /// file. The title banner is printed immediately.
  Reporter(std::string name, std::string title)
      : name_(std::move(name)), title_(std::move(title)) {
    std::cout << "\n" << banner(name_ + " — " + title_);
  }
  ~Reporter() { write(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  /// The Reporter's registry. Not installed automatically — wrap traced
  /// sections in obs::ScopedRegistry(reporter.registry()) and whatever
  /// they record lands in the JSON.
  obs::Registry& registry() { return registry_; }

  /// Records one named result value.
  void metric(const std::string& name, double value, const std::string& unit,
              Direction direction = Direction::kInfo) {
    metrics_.push_back({name, value, unit, direction});
  }

  /// Prints the qualitative claim being reproduced and whether it held,
  /// and records it for the JSON.
  void claim(const std::string& text, bool held) {
    std::cout << "claim: " << text << "\n"
              << "held:  " << (held ? "YES" : "NO") << "\n";
    claims_.push_back({text, held});
  }

  bool all_claims_held() const {
    for (const ClaimRecord& c : claims_) {
      if (!c.held) return false;
    }
    return true;
  }

  /// The full schema-v1 document (always valid JSON).
  std::string json() const {
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"name\": \"" << obs::json_escape(name_) << "\",\n";
    os << "  \"title\": \"" << obs::json_escape(title_) << "\",\n";
    os << "  \"timestamp_unix\": "
       << num(std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count())
       << ",\n";
    os << "  \"git_rev\": \"" << obs::json_escape(env_or("MHS_GIT_REV", ""))
       << "\",\n";
    os << "  \"machine\": {\"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"compiler\": \""
       << obs::json_escape(compiler_id()) << "\", \"pointer_bits\": "
       << 8 * sizeof(void*) << "},\n";
    os << "  \"wall_ms\": " << num(watch_.elapsed_ms()) << ",\n";
    os << "  \"metrics\": [";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const MetricRecord& m = metrics_[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"name\": \"" << obs::json_escape(m.name)
         << "\", \"value\": " << num(m.value) << ", \"unit\": \""
         << obs::json_escape(m.unit) << "\", \"direction\": \""
         << direction_name(m.direction) << "\"}";
    }
    os << (metrics_.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"claims\": [";
    for (std::size_t i = 0; i < claims_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"text\": \"" << obs::json_escape(claims_[i].text)
         << "\", \"held\": " << (claims_[i].held ? "true" : "false") << "}";
    }
    os << (claims_.empty() ? "]" : "\n  ]") << ",\n";

    const obs::Summary summary = registry_.summary();
    os << "  \"counters\": [";
    for (std::size_t i = 0; i < summary.counters.size(); ++i) {
      const obs::CounterStat& c = summary.counters[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"name\": \"" << obs::json_escape(c.name)
         << "\", \"value\": " << c.value << "}";
    }
    os << (summary.counters.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"histograms\": [";
    for (std::size_t i = 0; i < summary.hists.size(); ++i) {
      const obs::HistStat& h = summary.hists[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"name\": \"" << obs::json_escape(h.name)
         << "\", \"count\": " << h.count << ", \"sum\": " << h.sum
         << ", \"min\": " << h.min << ", \"max\": " << h.max
         << ", \"p50\": " << num(h.p50) << ", \"p90\": " << num(h.p90)
         << ", \"p99\": " << num(h.p99) << "}";
    }
    os << (summary.hists.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"gauges\": [";
    for (std::size_t i = 0; i < summary.gauges.size(); ++i) {
      const obs::GaugeStat& g = summary.gauges[i];
      os << (i == 0 ? "\n" : ",\n")
         << "    {\"name\": \"" << obs::json_escape(g.name)
         << "\", \"value\": " << num(g.value) << ", \"min\": " << num(g.min)
         << ", \"max\": " << num(g.max) << ", \"updates\": " << g.updates
         << "}";
    }
    os << (summary.gauges.empty() ? "]" : "\n  ]") << "\n";
    os << "}\n";
    return os.str();
  }

  /// Writes BENCH_<name>.json into $MHS_BENCH_OUT (default: the working
  /// directory). Idempotent; called by the destructor.
  void write() {
    if (written_) return;
    written_ = true;
    const std::string doc = json();
    if (!obs::json_is_valid(doc)) {
      std::cerr << "bench::Reporter: generated invalid JSON for " << name_
                << " — not written\n";
      return;
    }
    const char* out_dir = std::getenv("MHS_BENCH_OUT");
    const std::string dir =
        out_dir == nullptr || *out_dir == '\0' ? "." : out_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best-effort
    const std::string path = concat(dir, "/BENCH_", name_, ".json");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench::Reporter: cannot write " << path << "\n";
      return;
    }
    out << doc;
    std::cout << "report: " << path << "\n";
  }

 private:
  struct MetricRecord {
    std::string name;
    double value = 0.0;
    std::string unit;
    Direction direction = Direction::kInfo;
  };
  struct ClaimRecord {
    std::string text;
    bool held = false;
  };

  /// JSON number: finite doubles at round-trip precision; non-finite
  /// values (which JSON cannot carry) degrade to 0.
  static std::string num(double v) {
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  }

  static std::string env_or(const char* name, const char* fallback) {
    const char* value = std::getenv(name);
    return value == nullptr ? fallback : value;
  }

  static std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  std::string name_;
  std::string title_;
  obs::Stopwatch watch_;
  obs::Registry registry_;
  std::vector<MetricRecord> metrics_;
  std::vector<ClaimRecord> claims_;
  bool written_ = false;
};

}  // namespace mhs::bench
