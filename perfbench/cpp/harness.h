// Measurement helpers shared by the three perfbench workloads: the
// percentile rule, output digests, span self-time attribution, the
// result line, and the host fingerprint.
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

namespace obs = mhs::obs;

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The tail statistic of a latency sample: the highest percentile on the
/// ladder {90, 80, 75, 50} that has at least ten samples beyond it, so a
/// tail figure never rests on a handful of outliers. With fewer than 20
/// samples it falls back to the median.
struct Tail {
  double value = 0.0;
  int percentile = 50;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};
Tail tail_percentile(const std::vector<double>& values);

/// Samples ranked strictly above the `percentile`-th position of `n`.
std::size_t samples_beyond(std::size_t n, int percentile);

/// FNV-1a over the exact bytes of every value fed in; doubles are hashed
/// by bit pattern so "equal digest" means "bit-identical output".
class Digest {
 public:
  Digest& add(std::uint64_t value);
  Digest& add(double value);
  Digest& add(std::string_view text);
  Digest& add(const std::vector<bool>& bits);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// SplitMix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Self time of every event: its duration minus the time its direct
/// children cover. Children are found by interval nesting per thread, so
/// the self times of one span tree sum to its root's duration.
std::vector<double> self_times_us(const std::vector<obs::SpanEvent>& events);

/// Wall-time attribution of one traced core::run_codesign_flow: the
/// self time of each phase span directly under the root "flow" span,
/// the self time of every span nested deeper (gates, partition
/// strategy, cosynth target, simulator level), and the root's own self
/// time. By construction the three parts sum to `wall_us` (up to
/// rounding).
struct FlowAttribution {
  double wall_us = 0.0;
  std::map<std::string, double> phase_self_us;
  double nested_us = 0.0;
  double unattributed_us = 0.0;
  double sum_us() const;
};
/// False when `events` holds no single root "flow" span, a span lies
/// outside it, or a span's self time is negative (a child overruns its
/// parent or overlaps a sibling).
bool attribute_flow(const std::vector<obs::SpanEvent>& events,
                    FlowAttribution* out);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}. Non-finite values are
/// written as 0 and turn `correct` false, so the line always parses.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Shortest round-trip decimal form of a double.
std::string format_number(double value);
/// `text` as a JSON string literal.
std::string json_string(std::string_view text);

/// {"nproc":..,"compiler":..,"build_type":..} of this binary and host.
std::string host_fingerprint_json();
/// CPUs this process may run on (what `nproc` prints).
std::size_t host_threads();

/// Moves every thread of this process through the CPUs it may run on: a
/// window of `width` CPUs, one CPU further with each next(). The
/// destructor gives every thread the whole set back. On a shared host
/// one CPU runs slower than another from one minute to the next (a busy
/// SMT sibling, another tenant), and a thread the scheduler leaves on one
/// CPU takes that CPU's speed for a whole run. Moved through every CPU in
/// turn, it takes their mean. Threads started between two steps inherit
/// their creator's window.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t step_ = 0;
};
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Runs `op` back to back until `seconds` have elapsed, appending each
/// op's wall time (ms) to `latencies_ms`. Returns the window length (s).
double closed_loop(double seconds, const std::function<void()>& op,
                   std::vector<double>* latencies_ms);

/// Median wall time (µs) of `reps` calls of `fn`.
double time_us(int reps, const std::function<void()>& fn);

}  // namespace perfbench
