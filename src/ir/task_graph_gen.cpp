#include "ir/task_graph_gen.h"

#include <algorithm>
#include <cmath>

#include "base/table.h"

namespace mhs::ir {

namespace {

TaskCosts random_costs(const TaskGraphGenConfig& cfg, Rng& rng) {
  TaskCosts c;
  c.sw_cycles = rng.uniform(cfg.mean_sw_cycles / cfg.cost_spread,
                            cfg.mean_sw_cycles * cfg.cost_spread);
  const double speedup = rng.uniform(cfg.min_hw_speedup, cfg.max_hw_speedup);
  c.hw_cycles = c.sw_cycles / speedup;
  c.hw_area = c.sw_cycles * cfg.area_per_cycle * rng.uniform(0.5, 1.5);
  c.sw_size = c.sw_cycles * rng.uniform(0.2, 0.6);
  c.modifiability = rng.uniform();
  // Make the parallelism annotation correlate with the achievable HW
  // speedup, as it would for real kernels (parallel kernels speed up more).
  c.parallelism = std::clamp(
      (speedup - cfg.min_hw_speedup) /
          std::max(1e-9, cfg.max_hw_speedup - cfg.min_hw_speedup),
      0.0, 1.0);
  return c;
}

double random_bytes(const TaskGraphGenConfig& cfg, Rng& rng) {
  return rng.uniform(cfg.mean_edge_bytes * 0.25, cfg.mean_edge_bytes * 1.75);
}

TaskGraph gen_layered(const TaskGraphGenConfig& cfg, Rng& rng) {
  TaskGraph g("layered");
  std::vector<std::vector<TaskId>> layers;
  std::size_t remaining = cfg.num_tasks;
  while (remaining > 0) {
    const auto want = static_cast<std::size_t>(std::max<std::int64_t>(
        1, rng.uniform_int(1, static_cast<std::int64_t>(
                                  std::max(1.0, 2.0 * cfg.width - 1.0)))));
    const std::size_t take = std::min(want, remaining);
    std::vector<TaskId> layer;
    for (std::size_t i = 0; i < take; ++i) {
      layer.push_back(g.add_task(concat("t", std::to_string(g.num_tasks())),
                                 random_costs(cfg, rng)));
    }
    layers.push_back(std::move(layer));
    remaining -= take;
  }
  for (std::size_t l = 1; l < layers.size(); ++l) {
    for (const TaskId dst : layers[l]) {
      bool connected = false;
      for (const TaskId src : layers[l - 1]) {
        if (rng.bernoulli(cfg.edge_prob)) {
          g.add_edge(src, dst, random_bytes(cfg, rng));
          connected = true;
        }
      }
      // Keep each non-first-layer task reachable so the DAG has one phase.
      if (!connected) {
        g.add_edge(rng.pick(layers[l - 1]), dst, random_bytes(cfg, rng));
      }
    }
  }
  return g;
}

TaskGraph gen_pipeline(const TaskGraphGenConfig& cfg, Rng& rng) {
  TaskGraph g("pipeline");
  TaskId prev = TaskId::invalid();
  for (std::size_t i = 0; i < cfg.num_tasks; ++i) {
    const TaskId cur =
        g.add_task("stage" + std::to_string(i), random_costs(cfg, rng));
    if (prev.valid()) g.add_edge(prev, cur, random_bytes(cfg, rng));
    prev = cur;
  }
  return g;
}

TaskGraph gen_fork_join(const TaskGraphGenConfig& cfg, Rng& rng) {
  MHS_CHECK(cfg.num_tasks >= 3, "fork-join graph needs at least 3 tasks");
  TaskGraph g("fork_join");
  const TaskId src = g.add_task("fork", random_costs(cfg, rng));
  const TaskId dst = g.add_task("join", random_costs(cfg, rng));
  for (std::size_t i = 0; i + 2 < cfg.num_tasks; ++i) {
    const TaskId mid =
        g.add_task("branch" + std::to_string(i), random_costs(cfg, rng));
    g.add_edge(src, mid, random_bytes(cfg, rng));
    g.add_edge(mid, dst, random_bytes(cfg, rng));
  }
  return g;
}

TaskGraph gen_tree(const TaskGraphGenConfig& cfg, Rng& rng) {
  TaskGraph g("tree");
  // Build an in-tree: leaves reduce pairwise toward a single sink.
  std::vector<TaskId> frontier;
  const std::size_t leaves =
      std::max<std::size_t>(2, (cfg.num_tasks + 1) / 2);
  for (std::size_t i = 0; i < leaves; ++i) {
    frontier.push_back(
        g.add_task("leaf" + std::to_string(i), random_costs(cfg, rng)));
  }
  std::size_t level = 0;
  while (frontier.size() > 1) {
    std::vector<TaskId> next;
    for (std::size_t i = 0; i + 1 < frontier.size(); i += 2) {
      const TaskId parent = g.add_task(
          "red" + std::to_string(level) + "_" + std::to_string(i / 2),
          random_costs(cfg, rng));
      g.add_edge(frontier[i], parent, random_bytes(cfg, rng));
      g.add_edge(frontier[i + 1], parent, random_bytes(cfg, rng));
      next.push_back(parent);
    }
    if (frontier.size() % 2 == 1) next.push_back(frontier.back());
    frontier = std::move(next);
    ++level;
  }
  return g;
}

}  // namespace

TaskGraph generate_task_graph(const TaskGraphGenConfig& config, Rng& rng) {
  MHS_CHECK(config.num_tasks >= 1, "generator needs num_tasks >= 1");
  MHS_CHECK(config.min_hw_speedup > 0.0 &&
                config.max_hw_speedup >= config.min_hw_speedup,
            "invalid hw speedup range");
  MHS_CHECK(config.edge_prob >= 0.0 && config.edge_prob <= 1.0,
            "edge_prob out of [0,1]");
  TaskGraph g;
  switch (config.shape) {
    case GraphShape::kLayered:
      g = gen_layered(config, rng);
      break;
    case GraphShape::kPipeline:
      g = gen_pipeline(config, rng);
      break;
    case GraphShape::kForkJoin:
      g = gen_fork_join(config, rng);
      break;
    case GraphShape::kTree:
      g = gen_tree(config, rng);
      break;
  }
  g.validate();
  return g;
}

}  // namespace mhs::ir
