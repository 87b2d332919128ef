// Unit tests for mhs::cosynth — multiprocessor synthesis (exact, bin
// packing, sensitivity), interface synthesis, ASIP/SFU synthesis, the
// co-processor flow, and multi-threaded co-processor partitioning.
#include <gtest/gtest.h>

#include <set>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/table.h"
#include "cosynth/asip.h"
#include "cosynth/coproc.h"
#include "cosynth/interface_synth.h"
#include "cosynth/mtcoproc.h"
#include "cosynth/multiproc.h"
#include "cosynth/run.h"
#include "ir/task_graph_gen.h"
#include "obs/obs.h"

namespace mhs::cosynth {
namespace {

ir::TaskGraph small_graph(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  ir::TaskGraphGenConfig cfg;
  cfg.num_tasks = n;
  cfg.mean_sw_cycles = 1000.0;
  cfg.cost_spread = 2.0;
  return ir::generate_task_graph(cfg, rng);
}

AsipDesign asip(const std::vector<WeightedKernel>& apps,
                double area_budget) {
  Request req;
  req.apps = apps;
  req.area_budget = area_budget;
  return *run(Target::kAsip, req).asip;
}

TEST(Multiproc, MakespanSinglePeIsSerialSum) {
  const ir::TaskGraph g = small_graph(1, 6);
  const auto catalog = default_pe_catalog();
  const std::vector<std::size_t> one_pe_types = {2};  // "fast", slowdown 1
  const std::vector<std::size_t> assignment(g.num_tasks(), 0);
  const double makespan =
      mp_makespan(g, catalog, one_pe_types, assignment, MpCommModel{});
  EXPECT_NEAR(makespan, g.total_sw_cycles(), 1e-9);
}

TEST(Multiproc, MakespanTwoPesOverlapsIndependentWork) {
  // Two independent tasks on two PEs finish in max, not sum.
  ir::TaskGraph g("par");
  g.add_task("a", {1000, 0, 0, 0, 0, 0});
  g.add_task("b", {800, 0, 0, 0, 0, 0});
  const auto catalog = default_pe_catalog();
  const std::vector<std::size_t> types = {2, 2};
  const std::vector<std::size_t> assignment = {0, 1};
  EXPECT_NEAR(mp_makespan(g, catalog, types, assignment, MpCommModel{}),
              1000.0, 1e-9);
}

TEST(Multiproc, MakespanChargesCrossPeCommunication) {
  ir::TaskGraph g("chain");
  const ir::TaskId a = g.add_task("a", {1000, 0, 0, 0, 0, 0});
  const ir::TaskId b = g.add_task("b", {1000, 0, 0, 0, 0, 0});
  g.add_edge(a, b, 800);
  const auto catalog = default_pe_catalog();
  MpCommModel comm;  // 16 + 800/8 = 116
  const double same = mp_makespan(g, catalog, {2}, {0, 0}, comm);
  const double split = mp_makespan(g, catalog, {2, 2}, {0, 1}, comm);
  EXPECT_NEAR(same, 2000.0, 1e-9);
  EXPECT_NEAR(split, 2116.0, 1e-9);
}

TEST(Multiproc, ExactFindsFeasibleMinCost) {
  const ir::TaskGraph g = small_graph(2, 6);
  const auto catalog = default_pe_catalog();
  const double serial_fast = g.total_sw_cycles();  // on slowdown-1 PE
  const double deadline = serial_fast * 1.2;       // one fast PE suffices
  const MpDesign d = synthesize_exact(g, catalog, deadline);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.makespan, deadline);
  // A single "fast" PE (cost 1500) meets this deadline; anything cheaper
  // that is feasible is also acceptable, but never more expensive.
  EXPECT_LE(d.cost, 1500.0 + 1e-9);
}

TEST(Multiproc, ExactTightDeadlineBuysParallelismOrSpeed) {
  const ir::TaskGraph g = small_graph(3, 6);
  const auto catalog = default_pe_catalog();
  const double loose = g.total_sw_cycles() * 4.0;
  const double tight = g.total_sw_cycles() * 0.6;
  const MpDesign cheap = synthesize_exact(g, catalog, loose);
  const MpDesign fast = synthesize_exact(g, catalog, tight);
  ASSERT_TRUE(cheap.feasible);
  ASSERT_TRUE(fast.feasible);
  EXPECT_LE(cheap.cost, fast.cost);  // deadline down => cost up (or equal)
}

TEST(Multiproc, ExactReportsInfeasible) {
  const ir::TaskGraph g = small_graph(4, 5);
  const auto catalog = default_pe_catalog();
  const MpDesign d = synthesize_exact(g, catalog, 1.0);  // impossible
  EXPECT_FALSE(d.feasible);
}

TEST(Multiproc, BinpackFeasibleAndNeverCheaperThanExact) {
  const auto catalog = default_pe_catalog();
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const ir::TaskGraph g = small_graph(seed, 7);
    const double deadline = g.total_sw_cycles() * 0.8;
    const MpDesign exact = synthesize_exact(g, catalog, deadline);
    const MpDesign packed = synthesize_binpack(g, catalog, deadline);
    if (!exact.feasible) continue;
    ASSERT_TRUE(packed.feasible) << "seed " << seed;
    EXPECT_LE(packed.makespan, deadline);
    EXPECT_GE(packed.cost, exact.cost - 1e-9) << "seed " << seed;
  }
}

TEST(Multiproc, BinpackMuchLessEffortThanExact) {
  const ir::TaskGraph g = small_graph(8, 8);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles() * 0.7;
  const MpDesign exact = synthesize_exact(g, catalog, deadline);
  const MpDesign packed = synthesize_binpack(g, catalog, deadline);
  EXPECT_LT(packed.effort * 100, exact.effort);
}

TEST(Multiproc, SensitivityReducesSeedCostAndStaysFeasible) {
  const ir::TaskGraph g = small_graph(9, 8);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles() * 0.9;
  const MpDesign d = synthesize_sensitivity(g, catalog, deadline);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.makespan, deadline);
  // Seed was one fastest PE per task.
  const double seed_cost = static_cast<double>(g.num_tasks()) * 3600.0;
  EXPECT_LT(d.cost, seed_cost);
}

TEST(Multiproc, AssignmentsAlwaysCompleteAndValid) {
  const ir::TaskGraph g = small_graph(10, 7);
  const auto catalog = default_pe_catalog();
  const double deadline = g.total_sw_cycles();
  for (const MpDesign& d :
       {synthesize_exact(g, catalog, deadline),
        synthesize_binpack(g, catalog, deadline),
        synthesize_sensitivity(g, catalog, deadline)}) {
    ASSERT_EQ(d.assignment.size(), g.num_tasks());
    for (const std::size_t inst : d.assignment) {
      EXPECT_LT(inst, d.instance_type.size());
    }
  }
}

TEST(InterfaceSynth, AllocatorAlignsAndExhausts) {
  AddressMapAllocator alloc(0x10000, 0x1000);
  const std::uint64_t a = alloc.allocate(0x400, 0x400);
  const std::uint64_t b = alloc.allocate(0x400, 0x400);
  EXPECT_EQ(a % 0x400, 0u);
  EXPECT_EQ(b, a + 0x400);
  alloc.allocate(0x400, 0x400);  // window now has 0x400 left
  EXPECT_THROW(alloc.allocate(0x2000, 0x400), InfeasibleError);
  EXPECT_EQ(alloc.bytes_allocated(), 0xC00u);
}

TEST(InterfaceSynth, LatencyCriticalPicksPolling) {
  const ir::Cdfg kernel = apps::fir_kernel(6);
  hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  const hw::HlsResult impl = hw::synthesize(kernel, lib, constraints);

  Rng rng(3);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 8; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-100, 100));
    }
    samples.push_back(in);
  }

  Request req;
  req.impl = &impl;
  req.samples = &samples;
  AddressMapAllocator alloc1;
  req.allocator = &alloc1;
  req.interface_reqs.latency_weight = 1.0;
  const InterfaceDesign d1 = *run(Target::kInterface, req).iface;
  EXPECT_FALSE(d1.candidates[d1.selected].use_irq);

  AddressMapAllocator alloc2;
  req.allocator = &alloc2;
  req.interface_reqs.latency_weight = 0.0;
  req.interface_reqs.background_unroll = 8;
  const InterfaceDesign d2 = *run(Target::kInterface, req).iface;
  EXPECT_TRUE(d2.candidates[d2.selected].use_irq);
  // Both evaluated candidates agree functionally.
  EXPECT_EQ(d2.candidates[0].report.checksum,
            d2.candidates[1].report.checksum);
}

TEST(Asip, MacPatternCounter) {
  // fir has taps-1 mul-feeding-add patterns (plus shifts between).
  const ir::Cdfg mac = apps::sad_kernel(4);
  EXPECT_EQ(count_mac_patterns(mac), 0u);  // abs chain, no mul
  ir::Cdfg c("macs");
  const ir::OpId a = c.input("a");
  const ir::OpId b = c.input("b");
  const ir::OpId m = c.mul(a, b);
  c.output("y", c.add(m, a));
  EXPECT_EQ(count_mac_patterns(c), 1u);
}

TEST(Asip, BiggerBudgetMonotoneSpeedup) {
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  storage.push_back(apps::xtea_kernel(8));
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct8"},
      {&storage[1], 1.0, "xtea8"},
  };
  double prev_speedup = 0.99;
  for (const double budget : {0.0, 300.0, 1000.0, 2500.0, 5000.0}) {
    const AsipDesign d = asip(apps_set, budget);
    EXPECT_LE(d.area_used, budget + 1e-9);
    EXPECT_GE(d.speedup(), prev_speedup - 1e-9)
        << "budget " << budget;
    prev_speedup = d.speedup();
  }
  EXPECT_GT(prev_speedup, 1.15);  // large budget visibly helps
}

TEST(Asip, PicksFeaturesMatchingHotSpots) {
  // A multiply-dominated app should buy the fast multiplier first.
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  std::vector<WeightedKernel> apps_set = {{&storage[0], 1.0, "dct8"}};
  const AsipDesign d = asip(apps_set, 950.0);
  ASSERT_FALSE(d.features.empty());
  EXPECT_EQ(d.features[0], IsaFeature::kFastMul);
}

TEST(Asip, ReconfigurableSlotAdaptsPerApp) {
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());     // wants fast mul
  storage.push_back(apps::median5_kernel());  // wants native select
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct"},
      {&storage[1], 40.0, "median"},
  };
  const sw::CpuModel base = sw::reference_cpu();
  const ReconfigSfuDesign r =
      synthesize_sfu_reconfigurable(apps_set, base, 1500.0);
  ASSERT_EQ(r.per_app_feature.size(), 2u);
  EXPECT_NE(r.per_app_feature[0], r.per_app_feature[1]);
  EXPECT_GT(r.speedup(), 1.0);
}

TEST(Asip, ReconfigurableBeatsStaticUnderTightBudget) {
  // Two apps wanting the two priciest features (fast multiplier at 900,
  // fast divider at 1500); a budget of 2000 cannot hold both statically,
  // but a PRISM-style reprogrammable slot swaps between them per app.
  ir::Cdfg divs("div_chain");
  ir::OpId v = divs.input("a");
  for (int i = 0; i < 10; ++i) {
    v = divs.binary(ir::OpKind::kDiv, v,
                    divs.input(concat("d", std::to_string(i))));
  }
  divs.output("y", v);

  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  storage.push_back(std::move(divs));
  std::vector<WeightedKernel> apps_set = {
      {&storage[0], 1.0, "dct"},
      {&storage[1], 3.0, "div_chain"},
  };
  const sw::CpuModel base = sw::reference_cpu();
  const double budget = 2000.0;
  const AsipDesign fixed = asip(apps_set, budget);  // the static style
  const ReconfigSfuDesign flexible =
      synthesize_sfu_reconfigurable(apps_set, base, budget);
  EXPECT_GT(flexible.speedup(), fixed.speedup());
}

TEST(Coproc, StrategiesProduceConsistentDesigns) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  Request req;
  req.model = &model;
  req.objective.latency_target = g.total_sw_cycles() * 0.5;
  for (const CoprocStrategy s :
       {CoprocStrategy::kHotSpot, CoprocStrategy::kUnload,
        CoprocStrategy::kKl, CoprocStrategy::kGclp}) {
    req.strategy = s;
    const CoprocDesign d = *run(Target::kCoprocessor, req).coprocessor;
    EXPECT_EQ(d.partition.mapping.size(), g.num_tasks())
        << coproc_strategy_name(s);
    EXPECT_GT(d.all_sw_latency, 0.0);
    EXPECT_GE(d.speedup(), 0.99) << coproc_strategy_name(s);
  }
}

TEST(Coproc, ValidateHwAreaSynthesizesOnlyMappedKernels) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  const partition::CostModel model(w.graph, hw::default_library());
  partition::Mapping none(w.graph.num_tasks(), false);
  EXPECT_DOUBLE_EQ(validate_hw_area(model, none, w.kernels), 0.0);
  partition::Mapping all(w.graph.num_tasks(), true);
  EXPECT_GT(validate_hw_area(model, all, w.kernels), 0.0);
}

TEST(MtCoproc, GreedyRespectsBudget) {
  const ir::ProcessNetwork net = apps::ekg_monitor_network();
  sim::OsCosimConfig eval;
  eval.iterations = 16;
  const MtCoprocDesign d = mt_partition_latency_greedy(net, 3000.0, eval);
  EXPECT_LE(d.hw_area, 3000.0);
  EXPECT_FALSE(d.evaluation.deadlocked);
}

TEST(MtCoproc, ConcurrencyAwareNoWorseThanGreedy) {
  const ir::ProcessNetwork net = apps::worker_farm_network(4, 3000, 256);
  sim::OsCosimConfig eval;
  eval.iterations = 24;
  const double budget = 4000.0;  // fits ~3 workers
  const MtCoprocDesign greedy =
      mt_partition_latency_greedy(net, budget, eval);
  opt::AnnealConfig anneal_cfg;
  anneal_cfg.rounds = 24;
  anneal_cfg.moves_per_round = 16;
  const MtCoprocDesign aware = mt_partition_concurrency_aware(
      net, budget, eval, anneal_cfg, /*opt_iterations=*/8);
  EXPECT_FALSE(aware.evaluation.deadlocked);
  EXPECT_LE(aware.hw_area, budget + 1e-9);
  EXPECT_LE(aware.evaluation.makespan,
            greedy.evaluation.makespan * 1.02);
  EXPECT_GT(aware.effort, greedy.effort);
}


// -- The cosynth::run(Target, ...) dispatcher. The *Golden cases pin each
// target's full result on a fixed input as literals.

TEST(RunDispatcher, TargetNamesAreStableAndDistinct) {
  std::set<std::string> names;
  for (const Target t : kAllTargets) names.insert(target_name(t));
  EXPECT_EQ(names.size(), std::size(kAllTargets));
  EXPECT_STREQ(target_name(Target::kCoprocessor), "coprocessor");
  EXPECT_STREQ(target_name(Target::kMultiprocPeriodic),
               "multiproc_periodic");
}

TEST(RunDispatcher, CoprocessorGolden) {
  const ir::TaskGraph g = apps::jpeg_pipeline_graph();
  const partition::CostModel model(g, hw::default_library());
  Request req;
  req.model = &model;
  req.objective.latency_target = g.total_sw_cycles() * 0.5;
  req.strategy = CoprocStrategy::kKl;
  const Result r = run(Target::kCoprocessor, req);
  ASSERT_TRUE(r.coprocessor.has_value());
  const partition::PartitionResult& p = r.coprocessor->partition;
  EXPECT_EQ(p.algorithm, "kl");
  EXPECT_EQ(p.mapping, partition::Mapping(7, true));
  EXPECT_EQ(p.evaluations, 58u);
  EXPECT_EQ(p.metrics.latency_cycles, 4367.8333333333339);
  EXPECT_EQ(p.metrics.hw_area, 21279.0);
  EXPECT_EQ(p.metrics.sw_code_bytes, 0.0);
  EXPECT_EQ(p.metrics.cross_comm_cycles, 0.0);
  EXPECT_EQ(p.metrics.modifiability_penalty, 8020.0);
  EXPECT_EQ(p.metrics.tasks_in_hw, 7u);
  EXPECT_EQ(p.metrics.energy, 5431.7833333333338);
  EXPECT_EQ(r.coprocessor->all_sw_latency, 25700.0);
  EXPECT_EQ(r.latency(), 4367.8333333333339);
  EXPECT_EQ(r.area(), 21279.0);
  EXPECT_EQ(r.summary(),
            "kl: 7 tasks in HW, latency 4367.8 cyc (5.88x over all-SW), "
            "area 21279.0, 58 evaluations");
}

TEST(RunDispatcher, AsipGolden) {
  std::vector<ir::Cdfg> storage;
  storage.push_back(apps::dct8_kernel());
  storage.push_back(apps::xtea_kernel(8));
  Request req;
  req.apps = {{&storage[0], 1.0, "dct8"}, {&storage[1], 2.0, "xtea8"}};
  req.cpu = sw::reference_cpu();
  req.area_budget = 2500.0;
  const Result r = run(Target::kAsip, req);
  ASSERT_TRUE(r.asip.has_value());
  EXPECT_EQ(r.asip->features, (std::vector<IsaFeature>{
                                  IsaFeature::kFastMul, IsaFeature::kFastMem}));
  EXPECT_EQ(r.asip->area_used, 1500.0);
  EXPECT_EQ(r.asip->base_cycles, 962.0);
  EXPECT_EQ(r.asip->asip_cycles, 738.0);
  EXPECT_EQ(r.latency(), 738.0);
  EXPECT_EQ(r.summary(),
            "asip: 2 ISA features [fast_mul fast_mem], 962.0 -> 738.0 "
            "weighted cyc (1.30x), area 1500.0");
}

TEST(RunDispatcher, MixedGolden) {
  const ir::TaskGraph g = small_graph(21, 6);
  const std::vector<const ir::Cdfg*> kernels(g.num_tasks(), nullptr);
  Request req;
  req.graph = &g;
  req.kernels = &kernels;
  req.cpu = sw::reference_cpu();
  req.library = hw::default_library();
  req.area_budget = 2000.0;
  const Result r = run(Target::kMixed, req);
  ASSERT_TRUE(r.mixed.has_value());
  EXPECT_TRUE(r.mixed->features.empty());
  EXPECT_EQ(r.mixed->mapping,
            (partition::Mapping{false, false, false, false, true, true}));
  EXPECT_EQ(r.mixed->latency_cycles, 5807.7300126364489);
  EXPECT_EQ(r.mixed->isa_area, 0.0);
  EXPECT_EQ(r.mixed->coproc_area, 1758.6979082758128);
  EXPECT_EQ(r.mixed->feature_subsets_tried, 34u);
  EXPECT_EQ(r.mixed->partition_evaluations, 950u);
  EXPECT_EQ(r.area(), 1758.6979082758128);
  EXPECT_EQ(r.summary(),
            "mixed type I/II: 0 ISA features + 2 offloaded tasks, latency "
            "5807.7 cyc, area 1758.7 (isa 0.0 + coproc 1758.7)");
}

TEST(RunDispatcher, InterfaceGolden) {
  const ir::Cdfg kernel = apps::fir_kernel(6);
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  // impl's Schedule points into the library; keep it alive past the run.
  const hw::ComponentLibrary library = hw::default_library();
  const hw::HlsResult impl = hw::synthesize(kernel, library, constraints);
  Rng rng(17);
  std::vector<std::vector<std::int64_t>> samples;
  for (int s = 0; s < 6; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-100, 100));
    }
    samples.push_back(in);
  }
  Request req;
  req.impl = &impl;
  req.samples = &samples;
  AddressMapAllocator allocator;
  req.allocator = &allocator;
  const Result r = run(Target::kInterface, req);
  ASSERT_TRUE(r.iface.has_value());
  EXPECT_EQ(r.iface->base_address, 0x10000u);
  EXPECT_EQ(r.iface->selected, 1u);
  EXPECT_EQ(r.iface->driver.code.size(), 38u);
  struct Candidate {
    bool use_irq;
    double score, cycles_per_sample, background_per_sample, total_cycles;
    std::uint64_t sim_events;
  };
  const Candidate want[] = {
      {false, 0.5, 91.0, 0.0, 546.0, 72},
      {true, 0.051282051282051211, 100.33333333333333, 8.0, 602.0, 60},
  };
  ASSERT_EQ(r.iface->candidates.size(), std::size(want));
  for (std::size_t i = 0; i < std::size(want); ++i) {
    const DriverCandidate& got = r.iface->candidates[i];
    EXPECT_EQ(got.use_irq, want[i].use_irq) << i;
    EXPECT_EQ(got.score, want[i].score) << i;
    EXPECT_EQ(got.cycles_per_sample, want[i].cycles_per_sample) << i;
    EXPECT_EQ(got.background_per_sample, want[i].background_per_sample)
        << i;
    EXPECT_EQ(got.report.total_cycles, want[i].total_cycles) << i;
    EXPECT_EQ(got.report.sim_events, want[i].sim_events) << i;
    EXPECT_EQ(got.report.checksum, -19) << i;
  }
  EXPECT_EQ(r.latency(), 100.33333333333333);
  EXPECT_EQ(r.summary(), "interface: irq driver at 0x10000, 100.3 cyc/sample");
}

TEST(RunDispatcher, ImplSelectGolden) {
  Request req;
  req.menus = {
      {"fir", 2.0, {{"min_area", 100.0, 900.0}, {"fast", 400.0, 300.0}}},
      {"dct", 1.0, {{"min_area", 250.0, 1200.0}, {"fast", 700.0, 500.0}}},
  };
  req.area_budget = 900.0;
  const Result r = run(Target::kImplSelect, req);
  ASSERT_TRUE(r.impl_select.has_value());
  EXPECT_EQ(r.impl_select->chosen, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(r.impl_select->total_area, 650.0);
  EXPECT_EQ(r.impl_select->total_weighted_cycles, 1800.0);
  EXPECT_EQ(r.impl_select->explored, 5u);
  EXPECT_TRUE(r.impl_select->feasible);
  EXPECT_EQ(r.latency(), 1800.0);
  EXPECT_EQ(r.summary(),
            "impl select: feasible, 2 menus, weighted cycles 1800.0, area "
            "650.0, 5 nodes explored");
}

TEST(RunDispatcher, MultiprocPeriodicGolden) {
  ir::TaskGraph g = small_graph(22, 8);
  Rng rng(23);
  for (const ir::TaskId t : g.task_ids()) {
    g.task(t).period = g.task(t).costs.sw_cycles * rng.uniform(4.0, 20.0);
  }
  Request req;
  req.graph = &g;  // empty catalog: the target uses default_pe_catalog()
  const Result r = run(Target::kMultiprocPeriodic, req);
  ASSERT_TRUE(r.multiproc.has_value());
  EXPECT_EQ(r.multiproc->instance_type,
            (std::vector<std::size_t>{0, 0, 0, 0, 0}));
  EXPECT_EQ(r.multiproc->assignment,
            (std::vector<std::size_t>{3, 3, 2, 1, 0, 4, 2, 1}));
  EXPECT_EQ(r.multiproc->cost, 1500.0);
  EXPECT_EQ(r.multiproc->makespan, 0.80972447047083917);
  EXPECT_TRUE(r.multiproc->feasible);
  EXPECT_EQ(r.multiproc->effort, 4u);
  EXPECT_EQ(r.area(), 1500.0);
  EXPECT_EQ(r.summary(),
            "multiproc: feasible, 5 PEs, makespan 0.8 cyc, cost 1500.0, "
            "effort 4");
}

TEST(RunDispatcher, LayersBelowRecordIntoTheRequestTraceSink) {
  // The partition runs of kCoprocessor and kMixed and the evaluation
  // co-simulations of kInterface must record into request.trace_sink,
  // not into the installed global registry.
  obs::Registry global;
  const obs::ScopedRegistry scope(global);

  const ir::TaskGraph jpeg = apps::jpeg_pipeline_graph();
  const partition::CostModel model(jpeg, hw::default_library());
  const ir::TaskGraph g = small_graph(21, 6);
  const std::vector<const ir::Cdfg*> kernels(g.num_tasks(), nullptr);
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::ComponentLibrary library = hw::default_library();
  const hw::HlsResult impl = hw::synthesize(kernel, library, {});
  const std::vector<std::vector<std::int64_t>> samples(
      2, std::vector<std::int64_t>(kernel.inputs().size(), 3));
  AddressMapAllocator allocator;

  Request req;
  req.model = &model;
  req.objective.latency_target = jpeg.total_sw_cycles() * 0.5;
  req.graph = &g;
  req.kernels = &kernels;
  req.area_budget = 2000.0;
  req.impl = &impl;
  req.samples = &samples;
  req.allocator = &allocator;
  const std::pair<Target, const char*> cases[] = {
      {Target::kCoprocessor, "partition.kl.runs"},
      {Target::kMixed, "partition.kl.runs"},
      {Target::kInterface, "cosim.runs"},
  };
  for (const auto& [target, counter] : cases) {
    obs::Registry sink;
    req.trace_sink = &sink;
    run(target, req);
    EXPECT_GT(sink.counter(counter), 0u) << target_name(target);
  }
  EXPECT_EQ(global.counter("partition.kl.runs"), 0u);
  EXPECT_EQ(global.counter("cosim.runs"), 0u);
}

TEST(RunDispatcher, MissingRequiredInputsAreChecked) {
  Request empty;
  EXPECT_THROW(run(Target::kCoprocessor, empty), PreconditionError);
  EXPECT_THROW(run(Target::kMixed, empty), PreconditionError);
  EXPECT_THROW(run(Target::kInterface, empty), PreconditionError);
  EXPECT_THROW(run(Target::kMultiprocPeriodic, empty), PreconditionError);
}

}  // namespace
}  // namespace mhs::cosynth
