// explore_tgff: one caller builds a fresh core::Explorer per sweep, with
// nproc/2 threads, over seeded annotation-only TGFF graphs. Each sweep is
// checked bit for bit against a 1-thread sweep of the same graph made at
// set-up.
#include <algorithm>
#include <optional>

#include "base/error.h"
#include "core/explorer.h"
#include "partition/algorithms.h"
#include "workload.h"
#include "inputs.h"

namespace perfbench {

namespace core = mhs::core;
namespace partition = mhs::partition;

namespace {

/// Graphs in the pool; sweeps cycle through them in order. Odd, so the
/// median sweep falls inside one graph's population. The lowest frontier
/// latency of one 24-task graph varies by 27% (coefficient of variation)
/// between graphs; averaged over 15 it moves about 10% between seeds,
/// against 17% for 5.
constexpr std::size_t kGraphs = 15;

const std::vector<partition::Strategy>& strategies() {
  static const std::vector<partition::Strategy> s(
      std::begin(partition::kSearchStrategies),
      std::end(partition::kSearchStrategies));
  return s;
}

/// Every deterministic field of a sweep: each point's mapping, metrics
/// and effort, and the frontier.
std::uint64_t sweep_digest(const core::ExploreReport& r) {
  Digest d;
  for (const core::PointResult& p : r.points) {
    d.add(static_cast<std::uint64_t>(p.strategy))
        .add(p.partition.mapping)
        .add(p.partition.metrics.latency_cycles)
        .add(p.partition.metrics.hw_area)
        .add(p.partition.metrics.energy)
        .add(static_cast<std::uint64_t>(p.partition.evaluations))
        .add(p.error);
  }
  for (const std::size_t i : r.frontier) d.add(static_cast<std::uint64_t>(i));
  return d.value();
}

/// The metrics of the frontier's lowest-latency design (the first of
/// equal latencies, so the choice is deterministic).
const partition::Metrics& fastest_on_frontier(const core::ExploreReport& r) {
  MHS_CHECK(!r.frontier.empty(), "sweep returned an empty frontier");
  const core::PointResult* best = &r.points[r.frontier.front()];
  for (const std::size_t i : r.frontier) {
    if (r.points[i].partition.metrics.latency_cycles <
        best->partition.metrics.latency_cycles) {
      best = &r.points[i];
    }
  }
  return best->partition.metrics;
}

core::ExploreReport sweep(const mhs::ir::TaskGraph& graph, std::size_t threads) {
  core::Explorer::Options options;
  options.num_threads = threads;
  core::Explorer explorer(graph, options);
  return explorer.sweep({core::FlowConfig::defaults()}, strategies(),
                        sweep_objectives(graph));
}

/// Thread scaling (one sweep per graph at 1 thread and at nproc) and one
/// partition::run per sweep point without the sweep's EvalCache.
void time_explore_layers(const std::vector<mhs::ir::TaskGraph>& graphs,
                         Outcome* out) {
  double one = 0.0, many = 0.0;
  for (const mhs::ir::TaskGraph& g : graphs) {
    one += time_us(1, [&] { (void)sweep(g, 1); });
    many += time_us(1, [&] { (void)sweep(g, host_threads()); });
  }
  out->layer["core.explore.speedup_1_to_n"] = one / many;

  double run_us = 0.0;
  std::size_t runs = 0;
  const core::FlowConfig config = core::FlowConfig::defaults();
  for (const mhs::ir::TaskGraph& g : graphs) {
    const partition::CostModel model(g, config.library, config.comm);
    for (const partition::Objective& objective : sweep_objectives(g)) {
      for (const partition::Strategy s : strategies()) {
        run_us += time_us(1, [&] { (void)partition::run(s, model, objective); });
        ++runs;
      }
    }
  }
  out->layer["partition.run_us"] = run_us / static_cast<double>(runs);
}

}  // namespace

void run_explore_tgff(const Options& options, Outcome* out) {
  // Half the cores: a sweep waits for its slowest thread, and on a shared
  // host one busy core stalls a sweep that uses every core. Measured on a
  // 4-core VM, 2-thread sweeps repeated within 2% while 4-thread sweeps
  // drifted by 30%. Thread scaling up to nproc is its own layer metric.
  const std::size_t threads = std::max<std::size_t>(1, host_threads() / 2);
  std::vector<mhs::ir::TaskGraph> graphs;
  std::vector<std::uint64_t> digests;
  double hit_rate = 0.0;
  const auto setup = [&] {
    graphs = make_tgff_pool(options.seed, kGraphs);
    digests.clear();
    hit_rate = 0.0;
    out->design_latency_cycles = out->design_hw_area = 0.0;
    for (const mhs::ir::TaskGraph& g : graphs) {
      const core::ExploreReport ref = sweep(g, 1);
      digests.push_back(sweep_digest(ref));
      hit_rate += ref.cost_cache_hit_rate / kGraphs;
      // Every measured sweep of the graph must reproduce this frontier.
      const partition::Metrics& best = fastest_on_frontier(ref);
      out->design_latency_cycles += best.latency_cycles / kGraphs;
      out->design_hw_area += best.hw_area / kGraphs;
    }
  };
  begin_setup(setup, out);

  std::size_t next = 0;
  double traced_sweeps = 0.0, evaluations = 0.0, syntheses = 0.0;
  const auto op = [&](bool traced) {
    const std::size_t i = next++ % graphs.size();
    ++out->attempted;
    try {
      obs::Registry registry;
      core::ExploreReport r;
      {
        std::optional<obs::ScopedRegistry> scope;
        if (traced) scope.emplace(registry);
        r = sweep(graphs[i], threads);
      }
      for (const core::PointResult& p : r.points) {
        if (!p.error.empty()) {
          out->fail(graphs[i].name() + ": point failed: " + p.error);
          return;
        }
      }
      if (sweep_digest(r) != digests[i]) {
        out->fail(graphs[i].name() + ": sweep at " + std::to_string(threads) +
                  " threads differs from the 1-thread sweep");
        return;
      }
      if (!traced) return;
      traced_sweeps += 1.0;
      syntheses += static_cast<double>(registry.counter("hls.syntheses"));
      evaluations += partition_evaluations(registry);
      out->trace.merge_from(registry);
    } catch (const std::exception& e) {
      out->fail(graphs[i].name() + ": " + e.what());
    }
  };

  measure_window(options, op, out);
  if (options.trace) {
    auto& layer = out->layer;
    if (traced_sweeps > 0.0) {
      layer["partition.evaluations_per_op"] = evaluations / traced_sweeps;
      layer["hw.syntheses_per_op"] = syntheses / traced_sweeps;
    }
    for (const obs::HistStat& h : out->trace.summary().hists) {
      if (h.name == "explorer.point_us") layer["core.explore.point_us_p50"] = h.p50;
    }
    layer["partition.cost_cache_hit_rate"] = hit_rate;
    time_explore_layers(graphs, out);
  }
  end_setup(setup, out);
}

}  // namespace perfbench
