// Unit tests for mhs::core::Explorer — deterministic parallel design-space
// exploration with cached cost evaluation — plus the partition::run
// dispatcher and the base concurrency primitives it builds on (the thread
// pool and the single-flight ConcurrentCache).
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/workloads.h"
#include "base/concurrent_cache.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/explorer.h"
#include "ir/optimize.h"
#include "ir/task_graph_gen.h"

namespace mhs::core {
namespace {

ir::TaskGraph make_graph(std::size_t tasks = 12) {
  Rng rng(41);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = tasks;
  return ir::generate_task_graph(cfg, rng);
}

std::vector<partition::Objective> make_objectives(const ir::TaskGraph& g) {
  partition::Objective constrained;
  constrained.latency_target = 0.5 * g.total_sw_cycles();
  constrained.area_weight = 0.02;
  partition::Objective area_hungry = constrained;
  area_hungry.area_weight = 0.2;
  return {constrained, area_hungry};
}

std::vector<partition::Strategy> search_strategies() {
  return {partition::Strategy::kHotSpot, partition::Strategy::kUnload,
          partition::Strategy::kKl, partition::Strategy::kAnnealed,
          partition::Strategy::kGclp};
}

/// Field-exact equality of the deterministic parts of two reports
/// (wall times and cache statistics are scheduling-dependent and
/// deliberately excluded).
void expect_reports_identical(const ExploreReport& a,
                              const ExploreReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const PointResult& pa = a.points[i];
    const PointResult& pb = b.points[i];
    EXPECT_EQ(pa.index, pb.index);
    EXPECT_EQ(pa.strategy, pb.strategy);
    EXPECT_EQ(pa.config_index, pb.config_index);
    EXPECT_EQ(pa.error, pb.error);
    EXPECT_EQ(pa.partition.algorithm, pb.partition.algorithm);
    EXPECT_EQ(pa.partition.mapping, pb.partition.mapping);
    EXPECT_EQ(pa.partition.evaluations, pb.partition.evaluations);
    // Bit-identical metrics, not just approximately equal.
    EXPECT_EQ(pa.partition.metrics.latency_cycles,
              pb.partition.metrics.latency_cycles);
    EXPECT_EQ(pa.partition.metrics.hw_area, pb.partition.metrics.hw_area);
    EXPECT_EQ(pa.partition.metrics.energy, pb.partition.metrics.energy);
    EXPECT_EQ(pa.all_sw_latency, pb.all_sw_latency);
    EXPECT_EQ(pa.speedup, pb.speedup);
    EXPECT_EQ(pa.on_frontier, pb.on_frontier);
  }
  EXPECT_EQ(a.frontier, b.frontier);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> seen(257);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::size_t sum = 0;
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(
                   16,
                   [](std::size_t i) {
                     if (i == 7) throw Error("task failed");
                   }),
               Error);
  // The pool stays usable after a failed batch.
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, SubmitAndWaitIdleDrains) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ConcurrentCache, MemoizesAndCounts) {
  ConcurrentCache<int, int> cache;
  int computed = 0;
  const auto compute = [&computed](int key) {
    return [&computed, key] {
      ++computed;
      return key * key;
    };
  };
  const CacheResult<int> first = cache.get_or_compute(5, compute(5));
  EXPECT_EQ(first.value, 25);
  EXPECT_EQ(first.lookup, CacheLookup::kComputed);
  const CacheResult<int> second = cache.get_or_compute(5, compute(5));
  EXPECT_EQ(second.value, 25);
  EXPECT_EQ(second.lookup, CacheLookup::kHit);
  EXPECT_EQ(cache.get_or_compute(6, compute(6)).value, 36);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ConcurrentCache, ConcurrentHammerCountsExactly) {
  ConcurrentCache<int, int> cache;
  ThreadPool pool(4);
  std::atomic<int> wrong{0};
  std::atomic<int> computed{0};
  pool.parallel_for(512, [&](std::size_t i) {
    const int key = static_cast<int>(i % 13);
    const int value = cache
                          .get_or_compute(key,
                                          [&computed, key] {
                                            computed.fetch_add(1);
                                            return key * 1000;
                                          })
                          .value;
    if (value != key * 1000) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.size(), 13u);
  // Single flight: one computation per key, every other call a hit.
  EXPECT_EQ(computed.load(), 13);
  EXPECT_EQ(cache.misses(), 13u);
  EXPECT_EQ(cache.hits(), 512u - 13u);
}

TEST(ConcurrentCache, ConcurrentMissesOnOneKeyComputeOnce) {
  // The first caller's compute() holds its flight open until every other
  // caller has arrived at the cache, so they find it in flight (or, if
  // one is descheduled past the landing, stored): either way nobody
  // computes a second time.
  constexpr std::size_t kCallers = 8;
  ConcurrentCache<int, int> cache;
  std::latch computing(1);
  std::latch arrivals(kCallers - 1);
  std::atomic<int> computed{0};
  const auto compute = [&] {
    if (computed.fetch_add(1) == 0) {
      computing.count_down();
      arrivals.wait();
    }
    return 42;
  };
  std::vector<CacheResult<int>> results(kCallers, {0, CacheLookup::kHit});
  std::vector<std::thread> threads;
  threads.emplace_back([&] { results[0] = cache.get_or_compute(7, compute); });
  computing.wait();
  for (std::size_t i = 1; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      arrivals.count_down();
      results[i] = cache.get_or_compute(7, compute);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kCallers - 1);
  EXPECT_EQ(results[0].lookup, CacheLookup::kComputed);
  for (std::size_t i = 1; i < kCallers; ++i) {
    EXPECT_EQ(results[i].value, 42);
    EXPECT_NE(results[i].lookup, CacheLookup::kComputed);
  }
}

TEST(ConcurrentCache, ThrowingComputeStoresNothingAndWaitersRetry) {
  ConcurrentCache<int, int> cache;
  EXPECT_THROW(cache.get_or_compute(1, []() -> int { throw Error("boom"); }),
               Error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get_or_compute(1, [] { return 10; }).lookup,
            CacheLookup::kComputed);

  // A caller that arrives while a compute() is in flight on its key and
  // then sees it throw computes the value itself.
  std::latch computing(1);
  std::latch arrived(1);
  std::thread leader([&] {
    EXPECT_THROW(cache.get_or_compute(2,
                                      [&]() -> int {
                                        computing.count_down();
                                        arrived.wait();
                                        throw Error("boom");
                                      }),
                 Error);
  });
  computing.wait();
  arrived.count_down();
  const CacheResult<int> retried = cache.get_or_compute(2, [] { return 20; });
  leader.join();
  EXPECT_EQ(retried.value, 20);
  EXPECT_EQ(retried.lookup, CacheLookup::kComputed);
  EXPECT_EQ(cache.get_or_compute(2, [] { return 0; }).value, 20);
  EXPECT_EQ(cache.misses(), 4u);  // two throws, two stored computations
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ConcurrentCache, UnkeptValueReachesWaitersAndIsRecomputed) {
  constexpr std::size_t kCallers = 6;
  ConcurrentCache<int, int> cache;
  const auto never = [](const int&) { return false; };
  std::latch computing(1);
  std::latch arrivals(kCallers - 1);
  std::atomic<int> computed{0};
  const auto compute = [&] {
    if (computed.fetch_add(1) == 0) {
      computing.count_down();
      arrivals.wait();
    }
    return 42;
  };
  std::vector<CacheResult<int>> results(kCallers, {0, CacheLookup::kHit});
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { results[0] = cache.get_or_compute(3, compute, never); });
  computing.wait();
  for (std::size_t i = 1; i < kCallers; ++i) {
    threads.emplace_back([&, i] {
      arrivals.count_down();
      results[i] = cache.get_or_compute(3, compute, never);
    });
  }
  for (std::thread& t : threads) t.join();

  // Nothing is stored, so no call hits: each either rode a computation
  // or ran one, and the counters split exactly that way.
  std::size_t waited = 0;
  for (const CacheResult<int>& r : results) {
    EXPECT_EQ(r.value, 42);
    EXPECT_NE(r.lookup, CacheLookup::kHit);
    if (r.lookup == CacheLookup::kWaited) ++waited;
  }
  EXPECT_EQ(results[0].lookup, CacheLookup::kComputed);
  EXPECT_EQ(cache.hits(), waited);
  EXPECT_EQ(cache.misses(), static_cast<std::size_t>(computed.load()));
  EXPECT_EQ(cache.hits() + cache.misses(), kCallers);
  EXPECT_EQ(cache.size(), 0u);

  const CacheResult<int> next = cache.get_or_compute(3, compute);
  EXPECT_EQ(next.lookup, CacheLookup::kComputed);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PartitionRun, EveryStrategyReportsItsName) {
  const ir::TaskGraph g = make_graph();
  const partition::CostModel model(g, hw::default_library());
  partition::Objective obj;
  obj.latency_target = 0.5 * g.total_sw_cycles();
  for (const partition::Strategy s : partition::kAllStrategies) {
    const partition::PartitionResult r = partition::run(s, model, obj);
    EXPECT_EQ(r.algorithm, partition::strategy_name(s));
    EXPECT_EQ(r.mapping.size(), g.num_tasks());
  }
  EXPECT_STREQ(partition::strategy_name(partition::Strategy::kHotSpot),
               "hot_spot");
}

TEST(Explorer, DeterministicAcrossThreadCounts) {
  const ir::TaskGraph g = make_graph();
  const std::vector<FlowConfig> configs = {FlowConfig::defaults()};
  const std::vector<DesignPoint> points = Explorer::cross_product(
      configs.size(), search_strategies(), make_objectives(g));
  ASSERT_EQ(points.size(), 10u);

  std::vector<ExploreReport> reports;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Explorer::Options options;
    options.num_threads = threads;
    Explorer explorer(g, options);
    reports.push_back(explorer.explore(configs, points));
    EXPECT_EQ(reports.back().threads, threads);
  }
  expect_reports_identical(reports[0], reports[1]);
  expect_reports_identical(reports[0], reports[2]);
  EXPECT_FALSE(reports[0].frontier.empty());
  // Single-flight caches make the counters exact, so they match too.
  EXPECT_GT(reports[0].cost_cache_hits, 0u);
  for (const ExploreReport& report : reports) {
    EXPECT_EQ(report.cost_cache_hits, reports[0].cost_cache_hits);
    EXPECT_EQ(report.cost_cache_misses, reports[0].cost_cache_misses);
    EXPECT_EQ(report.estimate_cache_hits, reports[0].estimate_cache_hits);
    EXPECT_EQ(report.estimate_cache_misses,
              reports[0].estimate_cache_misses);
  }
}

TEST(Explorer, CachedEvaluationsAreBitIdenticalToUncached) {
  const ir::TaskGraph g = make_graph();
  const FlowConfig config = FlowConfig::defaults();
  const std::vector<DesignPoint> points = Explorer::cross_product(
      1, search_strategies(), make_objectives(g));

  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(g, options);
  const ExploreReport memo = explorer.explore({config}, points);
  EXPECT_GT(memo.cost_cache_hits, 0u);

  // The reference: partition::run over a fresh CostModel with no cache
  // (the graph has no kernels, so annotation leaves it unchanged).
  ASSERT_EQ(memo.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const partition::CostModel model(g, config.library, config.comm);
    const partition::PartitionResult plain =
        partition::run(points[i].strategy, model, points[i].objective);
    const partition::PartitionResult& cached = memo.points[i].partition;
    EXPECT_EQ(memo.points[i].error, "");
    EXPECT_EQ(cached.algorithm, plain.algorithm);
    EXPECT_EQ(cached.mapping, plain.mapping);
    EXPECT_EQ(cached.evaluations, plain.evaluations);
    EXPECT_EQ(cached.metrics.latency_cycles, plain.metrics.latency_cycles);
    EXPECT_EQ(cached.metrics.hw_area, plain.metrics.hw_area);
    EXPECT_EQ(cached.metrics.energy, plain.metrics.energy);
  }
}

TEST(Explorer, EmptyBatchAndSinglePoint) {
  const ir::TaskGraph g = make_graph();
  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(g, options);

  const ExploreReport empty = explorer.explore({FlowConfig::defaults()}, {});
  EXPECT_TRUE(empty.points.empty());
  EXPECT_TRUE(empty.frontier.empty());
  EXPECT_EQ(empty.contexts_built, 0u);

  DesignPoint point;
  point.strategy = partition::Strategy::kKl;
  point.objective = make_objectives(g)[0];
  const ExploreReport one =
      explorer.explore({FlowConfig::defaults()}, {point});
  ASSERT_EQ(one.points.size(), 1u);
  EXPECT_TRUE(one.points[0].error.empty());
  EXPECT_TRUE(one.points[0].on_frontier);
  ASSERT_EQ(one.frontier, std::vector<std::size_t>{0});

  // A single point must agree exactly with a direct dispatcher call
  // (the graph has no kernels, so annotation leaves it unchanged).
  const FlowConfig cfg = FlowConfig::defaults();
  const partition::CostModel model(g, cfg.library, cfg.comm);
  const partition::PartitionResult direct =
      partition::run(point.strategy, model, point.objective);
  EXPECT_EQ(one.points[0].partition.mapping, direct.mapping);
  EXPECT_EQ(one.points[0].partition.metrics.energy, direct.metrics.energy);
}

TEST(Explorer, PointFailuresAreReportedInBand) {
  const ir::TaskGraph g = make_graph();
  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(g, options);

  DesignPoint needs_target;
  needs_target.strategy = partition::Strategy::kHotSpot;
  // No latency target: the hot-spot mover must refuse.
  DesignPoint fine;
  fine.strategy = partition::Strategy::kGclp;
  fine.objective = make_objectives(g)[0];

  const ExploreReport report =
      explorer.explore({FlowConfig::defaults()}, {needs_target, fine});
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_FALSE(report.points[0].error.empty());
  EXPECT_FALSE(report.points[0].on_frontier);
  EXPECT_TRUE(report.points[1].error.empty());
  // Only the successful point is frontier-eligible.
  ASSERT_EQ(report.frontier, std::vector<std::size_t>{1});
}

TEST(Explorer, KernelEstimatesSharedAcrossConfigVariants) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  Explorer::Options options;
  options.num_threads = 2;
  Explorer explorer(w.graph, w.kernels, options);

  // Two variants with identical estimation environments: the second
  // context's annotation must be served from the kernel-estimate cache.
  const std::vector<FlowConfig> configs = {
      FlowConfig::defaults().without_cosim(),
      FlowConfig::defaults().without_cosim().with_area_weight(0.2)};
  partition::Objective obj;
  obj.latency_target = 0.6 * w.graph.total_sw_cycles();
  const ExploreReport report =
      explorer.sweep(configs, {partition::Strategy::kKl}, {obj});

  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_TRUE(report.points[0].error.empty());
  EXPECT_TRUE(report.points[1].error.empty());
  EXPECT_EQ(report.contexts_built, 2u);
  // Both contexts look up every (optimized) kernel under one environment:
  // exactly one estimate per distinct body, every other lookup a hit.
  std::size_t lookups = 0;
  std::set<std::uint64_t> bodies;
  for (const ir::Cdfg* kernel : w.kernels) {
    if (kernel == nullptr) continue;
    lookups += configs.size();
    bodies.insert(ir::content_hash(ir::optimize(*kernel)));
  }
  EXPECT_EQ(report.estimate_cache_misses, bodies.size());
  EXPECT_EQ(report.estimate_cache_hits, lookups - bodies.size());
  // Identical environments ⇒ identical annotations ⇒ identical results.
  EXPECT_EQ(report.points[0].partition.mapping,
            report.points[1].partition.mapping);
  EXPECT_EQ(report.points[0].partition.metrics.latency_cycles,
            report.points[1].partition.metrics.latency_cycles);
}

TEST(Explorer, ParetoIndicesMinimizeAllThreeObjectives) {
  const auto mk = [](double latency, double area, std::size_t evals) {
    PointResult p;
    p.partition.metrics.latency_cycles = latency;
    p.partition.metrics.hw_area = area;
    p.partition.evaluations = evals;
    return p;
  };
  std::vector<PointResult> pts = {
      mk(100, 10, 5),   // 0: optimal corner
      mk(100, 10, 9),   // 1: dominated by 0 (more evals)
      mk(50, 20, 9),    // 2: non-dominated (best latency)
      mk(200, 5, 9),    // 3: non-dominated (best area)
      mk(200, 20, 20),  // 4: dominated by everything
  };
  EXPECT_EQ(pareto_indices(pts), (std::vector<std::size_t>{0, 2, 3}));
  // Failed points never reach the frontier.
  pts[2].error = "boom";
  EXPECT_EQ(pareto_indices(pts), (std::vector<std::size_t>{0, 3}));
}

}  // namespace
}  // namespace mhs::core
