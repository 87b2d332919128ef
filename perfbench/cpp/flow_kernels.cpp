// flow_kernels: one caller runs core::run_codesign_flow with
// FlowConfig::defaults() back to back, cycling through a seeded pool of
// kernel-backed specs (inputs.h). Every flow's output is checked
// against a reference derived at set-up from code that is not the flow.
#include <map>
#include <memory>
#include <optional>

#include "base/rng.h"
#include "core/flow.h"
#include "hw/equivalence.h"
#include "hw/hls.h"
#include "sim/run.h"
#include "workload.h"
#include "inputs.h"

namespace perfbench {

namespace core = mhs::core;
namespace ir = mhs::ir;

namespace {

/// Everything that must be bit-identical between two flows of one spec.
std::uint64_t flow_digest(const core::FlowReport& r) {
  Digest d;
  d.add(r.design.partition.mapping)
      .add(r.design.partition.metrics.latency_cycles)
      .add(r.design.partition.metrics.hw_area)
      .add(r.validated_hw_area)
      .add(static_cast<std::uint64_t>(r.hls_verified_vectors));
  if (r.cosim) {
    d.add(static_cast<std::uint64_t>(r.cosim->checksum))
        .add(r.cosim->total_cycles)
        .add(r.cosim->sim_events);
  }
  return d.value();
}

/// A spec's set-up products: the warm-up flow (whose optimized kernels
/// the cosim implementation points into), the co-simulated kernel's
/// implementation and samples, and the expected digest.
struct SpecRef {
  std::unique_ptr<core::FlowReport> warm;
  std::vector<std::vector<std::int64_t>> samples;
  std::unique_ptr<mhs::hw::HlsResult> impl;
  std::uint64_t digest = 0;
};

/// The flow's co-simulation of `ref`'s implementation and samples.
mhs::sim::SimRequest sim_request(const SpecRef& ref,
                                 const core::FlowConfig& config) {
  mhs::sim::SimRequest request;
  request.impl = ref.impl.get();
  request.samples = &ref.samples;
  request.cosim.level = config.cosim_level;
  request.cosim.cpu = config.cpu;
  return request;
}

/// The task the flow co-simulates: the hardware-mapped kernel task with
/// the most software cycles (core/flow.cpp's rule).
std::optional<std::size_t> cosim_task(const core::FlowReport& r,
                                      const FlowSpec& spec) {
  std::optional<std::size_t> best;
  double best_cycles = -1.0;
  for (const ir::TaskId t : r.annotated.task_ids()) {
    if (!r.design.partition.mapping[t.index()]) continue;
    if (spec.kernels[t.index()] == nullptr) continue;
    const double c = r.annotated.task(t).costs.sw_cycles;
    if (c > best_cycles) {
      best_cycles = c;
      best = t.index();
    }
  }
  return best;
}

/// Checks the warm-up flow of one spec against references that do not
/// go through the flow: the software evaluation of the original kernel
/// on the cosim samples (checksum), and a direct synthesize + sim::run of
/// the flow's co-simulated kernel (checksum and simulated cycles).
SpecRef make_reference(const FlowSpec& spec,
                       std::unique_ptr<core::FlowReport> warm_flow,
                       const core::FlowConfig& config, Outcome* out) {
  SpecRef ref;
  ref.warm = std::move(warm_flow);
  const core::FlowReport& warm = *ref.warm;
  const std::optional<std::size_t> task = cosim_task(warm, spec);
  if (!task || !warm.cosim) {
    out->fail(spec.name + ": the flow co-simulated no kernel");
    return ref;
  }
  const ir::Cdfg& cosimmed = warm.optimized_kernels[*task];
  const ir::Cdfg& original = *spec.kernels[*task];

  mhs::Rng rng(config.cosim_seed);
  for (std::size_t s = 0; s < config.cosim_samples; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < cosimmed.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-128, 127));
    }
    ref.samples.push_back(std::move(in));
  }

  // Software reference: the unoptimized kernel, inputs matched by name.
  const ir::CompiledEval eval(original);
  std::uint64_t sw_checksum = 0;
  std::vector<std::int64_t> outputs(eval.num_outputs());
  for (const std::vector<std::int64_t>& sample : ref.samples) {
    std::vector<std::int64_t> in(eval.num_inputs(), 0);
    for (std::size_t k = 0; k < cosimmed.inputs().size(); ++k) {
      const std::string& name = cosimmed.op(cosimmed.inputs()[k]).name;
      for (std::size_t j = 0; j < eval.num_inputs(); ++j) {
        if (eval.input_names()[j] == name) in[j] = sample[k];
      }
    }
    eval.run(in, outputs);
    for (const std::int64_t v : outputs) sw_checksum += static_cast<std::uint64_t>(v);
  }

  mhs::hw::HlsConstraints constraints;
  constraints.goal = mhs::hw::HlsGoal::kMinArea;
  ref.impl = std::make_unique<mhs::hw::HlsResult>(
      mhs::hw::synthesize(cosimmed, config.library, constraints));
  const mhs::sim::CosimReport direct =
      *mhs::sim::run(sim_request(ref, config)).cosim;

  if (static_cast<std::uint64_t>(warm.cosim->checksum) != sw_checksum) {
    out->fail(spec.name + ": cosim checksum differs from the software "
                          "evaluation of the same samples");
  }
  if (direct.checksum != warm.cosim->checksum ||
      direct.total_cycles != warm.cosim->total_cycles) {
    out->fail(spec.name + ": flow cosim differs from a direct sim::run of "
                          "the same implementation");
  }
  if (warm.hls_verified_vectors != config.verify_hls) {
    out->fail(spec.name + ": the verify_hls gate did not run every vector");
  }
  ref.digest = flow_digest(warm);
  return ref;
}

void time_flow_layers(const std::vector<FlowSpec>& pool,
                      const std::vector<SpecRef>& refs,
                      const core::FlowConfig& config, Outcome* out) {
  std::vector<WeightedKernel> kernels;
  for (const FlowSpec& spec : pool) {
    for (const ir::Cdfg* k : spec.kernels) {
      if (k != nullptr) kernels.push_back({k, 1.0});
    }
  }
  time_kernel_layers(kernels, &out->layer);

  constexpr int kReps = 3;
  double equiv = 0.0, part = 0.0, cosynth = 0.0, sim = 0.0, cycles = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const SpecRef& ref = refs[i];
    if (!ref.impl) continue;
    const mhs::partition::CostModel model(ref.warm->annotated, config.library,
                                          config.comm);
    equiv += time_us(kReps, [&] {
      (void)mhs::hw::verify_synthesis(*ref.impl, config.verify_hls,
                                      config.cosim_seed ^ 0xe901f0ull);
    });
    const ModelTimes model_times = time_model_layers(model, config);
    part += model_times.partition_us;
    cosynth += model_times.cosynth_us;
    const SimTimes sim_times = time_sim(sim_request(ref, config));
    sim += sim_times.us;
    cycles += sim_times.cycles;
    ++n;
  }
  if (n == 0) return;
  out->layer["hw.equiv_us"] = equiv / n;
  out->layer["partition.run_us"] = part / n;
  out->layer["cosynth.run_us"] = cosynth / n;
  out->layer["sim.run_us"] = sim / n;
  out->layer["sim.cycles_per_host_s"] = cycles / (sim / 1e6);
}

/// The per-layer metrics of the traced flows: counters per flow, and the
/// named phases, the spans nested below them, and the root's own time,
/// which partition the flow's wall time exactly.
void report_attribution(const FlowAttribution& total, std::size_t flows,
                        double syntheses, double evaluations, Outcome* out) {
  if (flows == 0) return;
  const double n = static_cast<double>(flows);
  auto& layer = out->layer;
  layer["hw.syntheses_per_op"] = syntheses / n;
  layer["partition.evaluations_per_op"] = evaluations / n;
  layer["core.flow.wall_ms"] = total.wall_us / n / 1000.0;
  const std::map<std::string, std::string> phases = {
      {"verify.compile", "core.flow.verify_compile_ms"},
      {"specify", "core.flow.specify_ms"},
      {"estimate", "core.flow.estimate_ms"},
      {"partition", "core.flow.partition_ms"},
      {"verify.partition", "core.flow.verify_partition_ms"},
      {"cosynth", "core.flow.cosynth_ms"},
      {"cosim", "core.flow.cosim_ms"},
  };
  double other_us = total.nested_us;
  for (const auto& [span, us] : total.phase_self_us) {
    const auto it = phases.find(span);
    if (it != phases.end()) {
      layer[it->second] = us / n / 1000.0;
    } else {
      other_us += us;
    }
  }
  layer["core.flow.nested_ms"] = other_us / n / 1000.0;
  layer["core.flow.unattributed_ms"] = total.unattributed_us / n / 1000.0;
  layer["core.flow.unattributed_pct"] =
      100.0 * total.unattributed_us / total.wall_us;
}

}  // namespace

void run_flow_kernels(const Options& options, Outcome* out) {
  const core::FlowConfig config = core::FlowConfig::defaults();
  // Set-up: the spec pool plus one warm-up flow per spec, whose outputs
  // become the references every measured flow must reproduce.
  std::vector<FlowSpec> pool;
  std::vector<std::unique_ptr<core::FlowReport>> warm;
  const auto setup = [&] {
    pool = make_flow_pool(options.seed);
    warm.clear();
    for (const FlowSpec& spec : pool) {
      warm.push_back(std::make_unique<core::FlowReport>(
          core::run_codesign_flow(spec.graph, spec.kernels, config)));
    }
  };
  begin_setup(setup, out);
  std::vector<SpecRef> refs;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ++out->attempted;
    refs.push_back(make_reference(pool[i], std::move(warm[i]), config, out));
    // Every measured flow of the spec must reproduce these bit for bit.
    const auto& metrics = refs.back().warm->design.partition.metrics;
    out->design_latency_cycles += metrics.latency_cycles / pool.size();
    out->design_hw_area += metrics.hw_area / pool.size();
  }

  std::size_t next = 0;
  std::size_t traced_flows = 0;
  FlowAttribution total;
  double syntheses = 0.0, evaluations = 0.0;
  const auto op = [&](bool traced) {
    const std::size_t i = next++ % pool.size();
    ++out->attempted;
    try {
      obs::Registry registry;
      core::FlowReport r;
      {
        std::optional<obs::ScopedRegistry> scope;
        if (traced) scope.emplace(registry);
        r = core::run_codesign_flow(pool[i].graph, pool[i].kernels, config);
      }
      if (flow_digest(r) != refs[i].digest) {
        out->fail(pool[i].name + ": flow output differs from its reference");
        return;
      }
      if (!traced) return;
      FlowAttribution a;
      if (!attribute_flow(registry.events(), &a)) {
        out->fail(pool[i].name + ": the flow's spans do not nest in one tree");
        return;
      }
      ++traced_flows;
      total.wall_us += a.wall_us;
      total.nested_us += a.nested_us;
      total.unattributed_us += a.unattributed_us;
      for (const auto& [name, us] : a.phase_self_us) {
        total.phase_self_us[name] += us;
      }
      syntheses += static_cast<double>(registry.counter("hls.syntheses"));
      evaluations += partition_evaluations(registry);
      out->trace.merge_from(registry);
    } catch (const std::exception& e) {
      out->fail(pool[i].name + ": " + e.what());
    }
  };

  {
    // The one caller visits every CPU in turn, a step per flow. On a
    // 4-core VM this cut the interquartile range over median of op_p50_ms
    // over eight seeds from 0.39 to 0.10, interleaved with runs that
    // stayed where the scheduler put them.
    CpuRotation rotation(1);
    measure_window(
        options,
        [&](bool traced) {
          rotation.next();
          op(traced);
        },
        out);
  }
  if (options.trace) {
    time_flow_layers(pool, refs, config, out);
    report_attribution(total, traced_flows, syntheses, evaluations, out);
  }
  end_setup(setup, out);
}

}  // namespace perfbench
