// Design-space exploration example.
//
// Instead of running the co-design flow once per hand-picked strategy,
// hand the whole search to mhs::core::Explorer: a batch of design points
// (every §4.5 partitioning strategy × several objectives × two flow
// variants) is evaluated in parallel with cached cost evaluation, and
// the report carries the Pareto frontier over (latency, area,
// evaluations) plus the cache statistics that explain why the sweep is
// cheap.
//
// Run: ./build/examples/explore_design_space
#include <iostream>

#include "apps/workloads.h"
#include "base/table.h"
#include "core/explorer.h"

int main() {
  using namespace mhs;

  apps::KernelBackedWorkload workload = apps::dsp_chain_workload();

  // Two flow variants forked from one base config with the fluent
  // builder: with and without the kernel-optimization pass.
  const core::FlowConfig base =
      core::FlowConfig::defaults().without_cosim().without_hls_validation();
  const std::vector<core::FlowConfig> configs = {
      base, base.without_kernel_optimization()};

  // Latency targets as fractions of the all-software serial latency.
  const ir::TaskGraph annotated =
      core::annotate_costs(workload.graph, workload.kernels, base);
  std::vector<partition::Objective> objectives;
  for (const double fraction : {0.4, 0.7}) {
    partition::Objective objective;
    objective.latency_target = fraction * annotated.total_sw_cycles();
    objective.area_weight = 0.05;
    objectives.push_back(objective);
  }

  const std::vector<partition::Strategy> strategies(
      std::begin(partition::kSearchStrategies),
      std::end(partition::kSearchStrategies));

  core::Explorer explorer(workload.graph, workload.kernels);
  const core::ExploreReport report =
      explorer.sweep(configs, strategies, objectives);
  std::cout << report.summary;

  std::cout << "\nPareto-optimal designs:\n";
  for (const std::size_t idx : report.frontier) {
    const core::PointResult& p = report.points[idx];
    std::cout << "  " << partition::strategy_name(p.strategy)
              << " (variant " << p.config_index << "): "
              << p.partition.metrics.tasks_in_hw << " tasks in HW, "
              << fmt(p.speedup, 2) << "x over all-software, area "
              << fmt(p.partition.metrics.hw_area, 0) << "\n";
  }
  return 0;
}
