#include "workload.h"

#include <unordered_map>

#include "analysis/absint.h"
#include "analysis/verify.h"
#include "cosynth/run.h"
#include "hw/component_library.h"
#include "hw/hls.h"
#include "ir/optimize.h"
#include "partition/algorithms.h"
#include "sw/cpu_model.h"
#include "sw/estimate.h"

namespace perfbench {

namespace ir = mhs::ir;

void Outcome::fail(const std::string& why) {
  ++failed;
  if (problems.size() < 8) problems.push_back(why);
}

namespace {

void run_setup(const std::function<void()>& setup, Outcome* out,
               std::size_t min_reps, double min_seconds,
               std::size_t max_reps) {
  double total_s = 0.0;
  for (const double s : out->setup_s) total_s += s;
  // Each repetition runs on the next CPU, with every thread it starts,
  // so the median does not take one CPU's speed (see CpuRotation).
  CpuRotation rotation(1);
  while (out->setup_s.size() < min_reps ||
         (total_s < min_seconds && out->setup_s.size() < max_reps)) {
    rotation.next();
    const obs::Stopwatch watch;
    setup();
    out->setup_s.push_back(watch.elapsed_us() / 1e6);
    total_s += out->setup_s.back();
  }
}

}  // namespace

void begin_setup(const std::function<void()>& setup, Outcome* out) {
  run_setup(setup, out, 1, 1.0, 50);
}

void end_setup(const std::function<void()>& setup, Outcome* out) {
  run_setup(setup, out, 3, 2.0, 100);
}

double run_blocks(double seconds, bool trace,
                  const std::function<void(bool traced, double block_s)>& block) {
  const int blocks = trace ? 8 : 1;
  double untraced_s = 0.0;
  for (int b = 0; b < blocks; ++b) {
    const bool traced = b % 2 == 1;
    const obs::Stopwatch watch;
    block(traced, seconds / blocks);
    if (!traced) untraced_s += watch.elapsed_us() / 1e6;
  }
  return untraced_s;
}

void measure_window(const Options& options, const std::function<void(bool)>& op,
                    Outcome* out) {
  out->untraced_window_s =
      run_blocks(options.seconds, options.trace, [&](bool traced, double s) {
        closed_loop(s, [&] { op(traced); },
                    traced ? &out->traced_ms : &out->untraced_ms);
      });
  out->peak_rss_mb = peak_rss_mb();
}

double partition_evaluations(const obs::Registry& registry) {
  double sum = 0.0;
  for (const obs::CounterStat& c : registry.summary().counters) {
    if (c.name.starts_with("partition.") && c.name.ends_with(".evaluations")) {
      sum += static_cast<double>(c.value);
    }
  }
  return sum;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"ir.optimize_us", "us"},
      {"ir.ops_after_optimize", "count"},
      {"analysis.absint_us", "us"},
      {"analysis.verify_us", "us"},
      {"sw.estimate_us", "us"},
      {"hw.synthesize_us", "us"},
      {"hw.synthesize_ops_per_s", "1/s"},
      {"hw.syntheses_per_op", "count"},
      {"hw.equiv_us", "us"},
      {"partition.run_us", "us"},
      {"partition.evaluations_per_op", "count"},
      {"partition.cost_cache_hit_rate", "ratio"},
      {"cosynth.run_us", "us"},
      {"sim.run_us", "us"},
      {"sim.cycles_per_host_s", "1/s"},
      {"core.flow.wall_ms", "ms"},
      {"core.flow.verify_compile_ms", "ms"},
      {"core.flow.specify_ms", "ms"},
      {"core.flow.estimate_ms", "ms"},
      {"core.flow.partition_ms", "ms"},
      {"core.flow.verify_partition_ms", "ms"},
      {"core.flow.cosynth_ms", "ms"},
      {"core.flow.cosim_ms", "ms"},
      {"core.flow.nested_ms", "ms"},
      {"core.flow.unattributed_ms", "ms"},
      {"core.flow.unattributed_pct", "%"},
      {"core.explore.speedup_1_to_n", "ratio"},
      {"core.explore.point_us_p50", "us"},
      {"svc.parse_us_p50", "us"},
      {"svc.queue_us_p50", "us"},
      {"svc.dispatch_us_p50", "us"},
      {"svc.respond_us_p50", "us"},
      {"svc.cache_hit_ratio", "ratio"},
      {"svc.evaluations_per_request", "count"},
      {"svc.rejected", "count"},
      {"svc.hit_p50_ms", "ms"},
      {"svc.miss_p50_ms", "ms"},
      {"svc.http_overhead_us", "us"},
      {"obs.trace_overhead_pct", "%"},
  };
  return metrics;
}

namespace {
constexpr int kReps = 3;
}  // namespace

void time_kernel_layers(const std::vector<WeightedKernel>& kernels,
                        std::map<std::string, double>* layer) {
  const mhs::hw::ComponentLibrary lib = mhs::hw::default_library();
  const mhs::sw::CpuModel cpu = mhs::sw::reference_cpu();
  mhs::hw::HlsConstraints constraints;
  constraints.goal = mhs::hw::HlsGoal::kMinArea;

  // Distinct bodies by content, with their summed weights.
  std::unordered_map<std::uint64_t, WeightedKernel> bodies;
  std::vector<std::uint64_t> order;
  for (const WeightedKernel& k : kernels) {
    const std::uint64_t key = ir::content_hash(*k.kernel);
    auto [it, inserted] = bodies.try_emplace(key, WeightedKernel{k.kernel, 0.0});
    if (inserted) order.push_back(key);
    it->second.weight += k.weight;
  }

  double weight = 0.0, optimize = 0.0, ops_after = 0.0, absint = 0.0,
         verify = 0.0, estimate = 0.0, synth = 0.0;
  for (const std::uint64_t key : order) {
    const ir::Cdfg& kernel = *bodies[key].kernel;
    const double w = bodies[key].weight;
    const auto facts = mhs::analysis::absint_cdfg(kernel).interval_facts();
    ir::Cdfg optimized;
    const double t_optimize =
        time_us(kReps, [&] { optimized = ir::optimize(kernel, facts); });
    const double t_absint =
        time_us(kReps, [&] { (void)mhs::analysis::absint_cdfg(kernel); });
    const double t_verify = time_us(kReps, [&] {
      (void)mhs::analysis::verify(kernel);
      (void)mhs::analysis::analyze_cdfg(kernel, /*with_ranges=*/true);
    });
    const double t_estimate = time_us(
        kReps, [&] { (void)mhs::sw::estimate_compiled(optimized, cpu); });
    const double t_synth = time_us(
        kReps, [&] { (void)mhs::hw::synthesize(optimized, lib, constraints); });
    weight += w;
    optimize += w * t_optimize;
    ops_after += w * static_cast<double>(optimized.num_ops());
    absint += w * t_absint;
    verify += w * t_verify;
    estimate += w * t_estimate;
    synth += w * t_synth;
  }
  if (weight <= 0.0) return;
  (*layer)["ir.optimize_us"] = optimize / weight;
  (*layer)["ir.ops_after_optimize"] = ops_after / weight;
  (*layer)["analysis.absint_us"] = absint / weight;
  (*layer)["analysis.verify_us"] = verify / weight;
  (*layer)["sw.estimate_us"] = estimate / weight;
  (*layer)["hw.synthesize_us"] = synth / weight;
  // Both sums weight the same bodies: CDFG ops synthesized per second.
  (*layer)["hw.synthesize_ops_per_s"] = ops_after / (synth / 1e6);
}

ModelTimes time_model_layers(const mhs::partition::CostModel& model,
                             const mhs::core::FlowConfig& config) {
  ModelTimes t;
  t.partition_us = time_us(kReps, [&] {
    (void)mhs::partition::run(mhs::partition::Strategy::kKl, model,
                              config.objective);
  });
  mhs::cosynth::Request request;
  request.model = &model;
  request.objective = config.objective;
  request.strategy = config.strategy;
  request.lint_level = mhs::analysis::LintLevel::kOff;
  t.cosynth_us = time_us(kReps, [&] {
    (void)mhs::cosynth::run(mhs::cosynth::Target::kCoprocessor, request);
  });
  return t;
}

SimTimes time_sim(const mhs::sim::SimRequest& request) {
  SimTimes t;
  t.us = time_us(kReps, [&] { t.cycles = mhs::sim::run(request).total_cycles(); });
  return t;
}

}  // namespace perfbench
