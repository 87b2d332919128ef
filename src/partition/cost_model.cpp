#include "partition/cost_model.h"

#include <algorithm>
#include <limits>

#include "ir/task_graph_algos.h"

namespace mhs::partition {

namespace {

/// Packs a mapping into 64-bit words for use as a cache key. `tag`
/// selects the cached quantity: bit 0 = hw_concurrent, bit 1 =
/// price_communication for latency entries; 4 marks an area entry.
EvalKey make_key(const Mapping& mapping, std::uint32_t tag) {
  EvalKey key;
  key.tag = tag;
  key.words.assign((mapping.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i]) key.words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return key;
}

constexpr std::uint32_t kAreaTag = 4;

}  // namespace

CostModel::CostModel(const ir::TaskGraph& graph, hw::ComponentLibrary lib,
                     CommModel comm)
    : graph_(&graph), lib_(lib), comm_(comm) {
  graph.validate();
  profiles_.reserve(graph.num_tasks());
  for (const ir::TaskId t : graph.task_ids()) {
    profiles_.push_back(hw::profile_from_costs(graph.task(t).costs, lib_));
  }
}

double CostModel::edge_delay(ir::EdgeId e, bool src_hw, bool dst_hw) const {
  const double bytes = graph_->edge(e).bytes;
  if (src_hw != dst_hw) {
    return comm_.cross_overhead_cycles + bytes / comm_.cross_bytes_per_cycle;
  }
  if (src_hw) {
    return comm_.hwhw_overhead_cycles + bytes / comm_.hwhw_bytes_per_cycle;
  }
  return 0.0;  // SW-to-SW: shared memory
}

double CostModel::schedule_latency(const Mapping& mapping,
                                   bool hw_concurrent,
                                   bool price_communication) const {
  if (cache_ == nullptr) {
    return schedule_latency_uncached(mapping, hw_concurrent,
                                     price_communication);
  }
  const std::uint32_t tag = (hw_concurrent ? 1u : 0u) |
                            (price_communication ? 2u : 0u);
  return cache_
      ->get_or_compute(make_key(mapping, tag),
                       [&] {
                         return schedule_latency_uncached(
                             mapping, hw_concurrent, price_communication);
                       })
      .value;
}

double CostModel::schedule_latency_uncached(const Mapping& mapping,
                                            bool hw_concurrent,
                                            bool price_communication) const {
  const ir::TaskGraph& g = *graph_;
  MHS_CHECK(mapping.size() == g.num_tasks(), "mapping/task-count mismatch");
  const std::size_t n = g.num_tasks();
  if (n == 0) return 0.0;

  auto node_delay = [&](ir::TaskId t) {
    return mapping[t.index()] ? g.task(t).costs.hw_cycles
                              : g.task(t).costs.sw_cycles;
  };
  auto edge_cost = [&](ir::EdgeId e) {
    if (!price_communication) return 0.0;
    const ir::Edge& edge = g.edge(e);
    return edge_delay(e, mapping[edge.src.index()],
                      mapping[edge.dst.index()]);
  };

  // Priority: b-level under the mapped delays.
  const auto priority = ir::b_levels(g, node_delay, edge_cost);

  std::vector<std::size_t> preds_left(n, 0);
  for (const ir::EdgeId e : g.edge_ids()) {
    ++preds_left[g.edge(e).dst.index()];
  }
  std::vector<double> finish(n, -1.0);
  std::vector<double> ready(n, 0.0);
  std::vector<bool> scheduled(n, false);
  std::size_t remaining = n;
  double cpu_free = 0.0;
  double hw_free = 0.0;  // used when hw_concurrent == false
  double makespan = 0.0;

  auto commit = [&](ir::TaskId t, double start) {
    const double f = start + node_delay(t);
    finish[t.index()] = f;
    scheduled[t.index()] = true;
    makespan = std::max(makespan, f);
    --remaining;
    for (const ir::EdgeId e : g.out_edges(t)) {
      const ir::TaskId d = g.edge(e).dst;
      ready[d.index()] = std::max(ready[d.index()], f + edge_cost(e));
      --preds_left[d.index()];
    }
  };

  while (remaining > 0) {
    bool progressed = false;
    // Hardware tasks never contend (when concurrent): schedule every
    // ready one at its ready time.
    if (hw_concurrent) {
      for (const ir::TaskId t : g.task_ids()) {
        if (scheduled[t.index()] || !mapping[t.index()]) continue;
        if (preds_left[t.index()] != 0) continue;
        commit(t, ready[t.index()]);
        progressed = true;
      }
      if (progressed) continue;
    }

    // Pick the contended (SW, or all when !hw_concurrent) ready task with
    // the earliest possible start; break ties by b-level priority.
    ir::TaskId best = ir::TaskId::invalid();
    double best_start = std::numeric_limits<double>::infinity();
    for (const ir::TaskId t : g.task_ids()) {
      if (scheduled[t.index()] || preds_left[t.index()] != 0) continue;
      if (hw_concurrent && mapping[t.index()]) continue;
      const double resource_free =
          mapping[t.index()] && !hw_concurrent ? hw_free : cpu_free;
      const double start = std::max(resource_free, ready[t.index()]);
      if (start < best_start - 1e-12 ||
          (std::abs(start - best_start) <= 1e-12 && best.valid() &&
           priority[t.index()] > priority[best.index()])) {
        best_start = start;
        best = t;
      }
    }
    MHS_ASSERT(best.valid(), "scheduler found no ready task (cycle?)");
    const bool hw_task = mapping[best.index()];
    commit(best, best_start);
    if (hw_task && !hw_concurrent) {
      hw_free = finish[best.index()];
    } else if (!hw_task) {
      cpu_free = finish[best.index()];
    }
  }
  return makespan;
}

double CostModel::hardware_area(const Mapping& mapping) const {
  if (cache_ == nullptr) return hardware_area_uncached(mapping);
  return cache_
      ->get_or_compute(make_key(mapping, kAreaTag),
                       [&] { return hardware_area_uncached(mapping); })
      .value;
}

double CostModel::hardware_area_uncached(const Mapping& mapping) const {
  std::vector<hw::HwProfile> residents;
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i]) residents.push_back(profiles_[i]);
  }
  return hw::shared_area_from_scratch(lib_, residents);
}

Metrics CostModel::evaluate(const Mapping& mapping,
                            const Objective& objective) const {
  const ir::TaskGraph& g = *graph_;
  MHS_CHECK(mapping.size() == g.num_tasks(), "mapping/task-count mismatch");

  Metrics m;
  m.latency_cycles = schedule_latency(
      mapping, objective.consider_concurrency,
      objective.consider_communication);
  m.hw_area = hardware_area(mapping);
  for (const ir::TaskId t : g.task_ids()) {
    if (mapping[t.index()]) {
      ++m.tasks_in_hw;
      m.modifiability_penalty += g.task(t).costs.modifiability *
                                 g.task(t).costs.sw_cycles;
    } else {
      m.sw_code_bytes += g.task(t).costs.sw_size;
    }
  }
  for (const ir::EdgeId e : g.edge_ids()) {
    const ir::Edge& edge = g.edge(e);
    const bool s = mapping[edge.src.index()];
    const bool d = mapping[edge.dst.index()];
    if (s != d) m.cross_comm_cycles += edge_delay(e, s, d);
  }

  double energy = objective.latency_weight * m.latency_cycles +
                  objective.area_weight * m.hw_area +
                  objective.sw_size_weight * m.sw_code_bytes;
  if (objective.consider_modifiability) {
    energy += objective.modifiability_weight * m.modifiability_penalty;
  }
  if (objective.latency_target > 0.0 &&
      m.latency_cycles > objective.latency_target) {
    energy += objective.latency_penalty_weight *
              (m.latency_cycles - objective.latency_target);
  }
  if (objective.area_budget > 0.0 && m.hw_area > objective.area_budget) {
    energy += objective.area_penalty_weight *
              (m.hw_area - objective.area_budget);
  }
  m.energy = energy;
  return m;
}

}  // namespace mhs::partition
