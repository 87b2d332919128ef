// The contract between perfbench's entry point (main.cpp) and its three
// workloads: what a run is asked to do and what it hands back.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/flow.h"
#include "harness.h"
#include "ir/cdfg.h"
#include "obs/obs.h"
#include "partition/cost_model.h"
#include "sim/run.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced blocks, then time every
  /// layer's entry point and report the per-layer metrics.
  bool trace = false;
};


struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Set-up wall time of each repetition (s).
  std::vector<double> setup_s;
  /// Wall time of each op run with tracing off, and (trace runs) on.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  /// Seconds of measurement the untraced ops came from.
  double untraced_window_s = 0.0;
  /// Peak resident memory when the measured window closed (serve_mix:
  /// after a fixed request count), before any output check or layer
  /// timing could add to it (MB).
  double peak_rss_mb = 0.0;
  /// Result quality of the designs the ops returned: partitioned latency
  /// (cycles) and HW area, as each workload defines them.
  double design_latency_cycles = 0.0;
  double design_hw_area = 0.0;
  /// Per-layer metric values by name (trace runs); names absent here are
  /// layers the workload does not run and report as 0.
  std::map<std::string, double> layer;
  /// Spans of the traced ops, exported once as Chrome trace JSON.
  obs::Registry trace;
  /// Descriptions of the first failures (the run's report keeps them).
  std::vector<std::string> problems;

  /// Counts a failed op (or a failed run-level check) with its reason.
  void fail(const std::string& why);
};

/// Set-up is timed several times per run, and setup_s is the median.
/// begin_setup runs `setup` until one second has accumulated (at most 50
/// times); the run measures the products of its last repetition.
/// end_setup, called once the run's other work is done, runs it again
/// until the run has at least three repetitions and two seconds of
/// set-up (at most 100). Spreading the repetitions over the run keeps one
/// slow second of a shared host from setting the median.
void begin_setup(const std::function<void()>& setup, Outcome* out);
void end_setup(const std::function<void()>& setup, Outcome* out);

/// The measured window's schedule. An untraced run is one block of
/// `seconds`. A traced run alternates untraced and traced blocks of
/// `seconds / 8` each, untraced first, so both halves see the same host
/// conditions. `block(traced, block_s)` runs one block. Returns the
/// seconds the untraced blocks took.
double run_blocks(double seconds, bool trace,
                  const std::function<void(bool traced, double block_s)>& block);

/// One caller's closed loop over run_blocks: `op(traced)` runs one op,
/// and its wall time lands in the matching latency vector. Sets the
/// untraced window and, as it closes, the peak RSS.
void measure_window(const Options& options, const std::function<void(bool)>& op,
                    Outcome* out);

void run_flow_kernels(const Options& options, Outcome* out);
void run_explore_tgff(const Options& options, Outcome* out);
void run_serve_mix(const Options& options, Outcome* out);

/// Sum of the existing partition.<strategy>.evaluations counters.
double partition_evaluations(const obs::Registry& registry);

/// Every per-layer metric the traced run prints, with its unit, in
/// report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Kernel-layer timings (ir, analysis, sw, hw synthesis) over a weighted
/// multiset of kernels: each distinct body is timed once and weighted by
/// how often the workload's ops present it. Fills `layer`.
struct WeightedKernel {
  const mhs::ir::Cdfg* kernel = nullptr;
  double weight = 1.0;
};
void time_kernel_layers(const std::vector<WeightedKernel>& kernels,
                        std::map<std::string, double>* layer);

/// Median µs of partition::run(kKl) and of cosynth::run(kCoprocessor)
/// over `model`, with `config`'s objective and strategy.
struct ModelTimes {
  double partition_us = 0.0;
  double cosynth_us = 0.0;
};
ModelTimes time_model_layers(const mhs::partition::CostModel& model,
                             const mhs::core::FlowConfig& config);

/// Median µs of sim::run(request), and the cycles it simulated.
struct SimTimes {
  double us = 0.0;
  double cycles = 0.0;
};
SimTimes time_sim(const mhs::sim::SimRequest& request);

}  // namespace perfbench
