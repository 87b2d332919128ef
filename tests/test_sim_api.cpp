// Golden tests for the sim::run seam.
//
// The results of every simulation level are pinned as literals: the
// accelerator co-simulation at every interface level, with and without a
// seeded fault plan (every CosimReport field, the Profile buckets and the
// fault scoreboard), the process level and the system level. The seam
// must also give bit-identical reports under 1/2/4/8-thread batches.
#include <gtest/gtest.h>

#include <vector>

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "ir/process_network.h"
#include "sim/run.h"

namespace mhs::sim {
namespace {

hw::HlsResult make_impl(const ir::Cdfg& kernel) {
  static hw::ComponentLibrary lib = hw::default_library();
  hw::HlsConstraints constraints;
  constraints.goal = hw::HlsGoal::kMinArea;
  return hw::synthesize(kernel, lib, constraints);
}

std::vector<std::vector<std::int64_t>> random_samples(
    const ir::Cdfg& kernel, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::int64_t> in;
    for (std::size_t k = 0; k < kernel.inputs().size(); ++k) {
      in.push_back(rng.uniform_int(-1000, 1000));
    }
    samples.push_back(std::move(in));
  }
  return samples;
}

/// One accelerator co-simulation's report, every field.
struct CosimGolden {
  InterfaceLevel level;
  bool use_irq;
  double total_cycles;
  std::uint64_t sim_events, sw_instructions, bus_accesses;
  Time bus_busy_cycles;
  std::uint64_t signal_transitions;
  std::int64_t checksum, background_units;
  std::uint64_t hw_activations;
  std::uint64_t profile[obs::Profile::kNumCategories];
  std::uint64_t profile_total;
  fault::ResilienceReport resilience;
};

void expect_golden(const CosimReport& r, const CosimGolden& g) {
  const std::string what = std::string(interface_level_name(g.level)) +
                           (g.use_irq ? "+irq" : "");
  EXPECT_EQ(r.level, g.level) << what;
  EXPECT_EQ(r.total_cycles, g.total_cycles) << what;
  EXPECT_EQ(r.sim_events, g.sim_events) << what;
  EXPECT_EQ(r.sw_instructions, g.sw_instructions) << what;
  EXPECT_EQ(r.bus_accesses, g.bus_accesses) << what;
  EXPECT_EQ(r.bus_busy_cycles, g.bus_busy_cycles) << what;
  EXPECT_EQ(r.signal_transitions, g.signal_transitions) << what;
  EXPECT_EQ(r.checksum, g.checksum) << what;
  EXPECT_EQ(r.background_units, g.background_units) << what;
  EXPECT_EQ(r.hw_activations, g.hw_activations) << what;
  EXPECT_EQ(r.profile.total(), g.profile_total) << what;
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    const auto cat = static_cast<obs::Profile::Category>(c);
    EXPECT_EQ(r.profile.cycles(cat), g.profile[c])
        << what << " profile category " << obs::Profile::category_name(cat);
  }
  EXPECT_EQ(r.resilience, g.resilience) << what;
}

CosimGolden snapshot(const CosimReport& r, bool use_irq) {
  CosimGolden g{r.level, use_irq, r.total_cycles, r.sim_events,
                r.sw_instructions, r.bus_accesses, r.bus_busy_cycles,
                r.signal_transitions, r.checksum, r.background_units,
                r.hw_activations, {}, r.profile.total(), r.resilience};
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    g.profile[c] = r.profile.cycles(static_cast<obs::Profile::Category>(c));
  }
  return g;
}

SimResult cosim(const hw::HlsResult& impl,
                const std::vector<std::vector<std::int64_t>>& samples,
                const CosimConfig& cfg) {
  SimRequest req;
  req.impl = &impl;
  req.samples = &samples;
  req.cosim = cfg;
  return run(req);
}

TEST(SimRunGolden, AcceleratorAtEveryInterfaceLevel) {
  const ir::Cdfg kernel = apps::fir_kernel(6);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 12, 7);
  const CosimGolden goldens[] = {
      {InterfaceLevel::kPin, false, 1086.0, 828, 319, 132, 528, 684,
       -527, 0, 12, {558, 528, 0, 0, 0, 0}, 1086, {}},
      {InterfaceLevel::kPin, true, 1220.0, 708, 440, 108, 432, 564,
       -527, 72, 12, {788, 432, 0, 0, 0, 0}, 1220, {}},
      {InterfaceLevel::kRegister, false, 1086.0, 144, 319, 132, 528, 0,
       -527, 0, 12, {558, 528, 0, 0, 0, 0}, 1086, {}},
      {InterfaceLevel::kRegister, true, 1220.0, 120, 440, 108, 432, 0,
       -527, 72, 12, {788, 432, 0, 0, 0, 0}, 1220, {}},
      {InterfaceLevel::kDriver, false, 1176.0, 36, 0, 24, 648, 0,
       -527, 0, 12, {360, 648, 0, 168, 0, 0}, 1176, {}},
      {InterfaceLevel::kMessage, false, 4968.0, 24, 0, 24, 4800, 0,
       -527, 0, 12, {0, 4800, 0, 168, 0, 0}, 4968, {}},
  };
  for (const CosimGolden& g : goldens) {
    CosimConfig cfg;
    cfg.level = g.level;
    cfg.use_irq = g.use_irq;
    cfg.background_unroll = g.use_irq ? 2 : 0;
    const SimResult result = cosim(impl, samples, cfg);
    ASSERT_TRUE(result.cosim.has_value());
    EXPECT_FALSE(result.os.has_value());
    EXPECT_FALSE(result.system.has_value());
    expect_golden(*result.cosim, g);
    EXPECT_EQ(result.total_cycles(), g.total_cycles);
    EXPECT_EQ(result.sim_events(), g.sim_events);
    EXPECT_NE(result.summary().find(interface_level_name(g.level)),
              std::string::npos);
  }
}

TEST(SimRunGolden, AcceleratorUnderASeededFaultPlan) {
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 8, 21);
  const CosimGolden goldens[] = {
      {InterfaceLevel::kPin, false, 983.0, 580, 384, 100, 400, 488,
       52776558132232, 0, 8, {583, 400, 0, 0, 0, 0}, 983,
       {9, 0, 0, 0, 0, 0, {5, 0, 0, 0, 4, 0, 0}}},
      {InterfaceLevel::kRegister, false, 983.0, 108, 384, 100, 400, 0,
       52776558132232, 0, 8, {583, 400, 0, 0, 0, 0}, 983,
       {9, 0, 0, 0, 0, 0, {5, 0, 0, 0, 4, 0, 0}}},
      {InterfaceLevel::kDriver, false, 1590.0, 33, 0, 21, 540, 0,
       -52776558134264, 0, 13, {390, 540, 0, 240, 420, 0}, 1590,
       {10, 5, 5, 5, 0, 500, {3, 0, 0, 0, 7, 0, 0}}},
      {InterfaceLevel::kMessage, false, 5064.0, 22, 0, 22, 4400, 0,
       -68942815036408, 0, 8, {0, 4400, 0, 160, 504, 0}, 5064,
       {8, 6, 6, 6, 0, 2540, {1, 0, 0, 0, 7, 0, 0}}},
  };
  for (const CosimGolden& g : goldens) {
    CosimConfig cfg;
    cfg.level = g.level;
    cfg.fault_plan.add(fault::FaultSpec::peripheral_stall(0.5, 80))
        .add(fault::FaultSpec::bus_bit_flip(0.05))
        .add(fault::FaultSpec::peripheral_hang(0.05));
    cfg.fault_seed = 77;
    const SimResult result = cosim(impl, samples, cfg);
    ASSERT_TRUE(result.cosim.has_value());
    expect_golden(*result.cosim, g);
  }
}

TEST(SimRunGolden, ProcessLevel) {
  const ir::ProcessNetwork net = apps::packet_pipeline_network();
  std::vector<bool> in_hw(net.num_processes(), false);
  in_hw[1] = true;
  SimRequest req;
  req.level = Level::kProcess;
  req.network = &net;
  req.in_hw = &in_hw;
  req.os.iterations = 32;
  const SimResult result = run(req);
  ASSERT_TRUE(result.os.has_value());
  EXPECT_EQ(result.os->makespan, 154920.0);
  EXPECT_EQ(result.os->sim_events, 449u);
  EXPECT_EQ(result.os->cpu_busy_cycles, 154920.0);
  EXPECT_EQ(result.os->hw_busy_cycles, 4114.2857142857129);
  EXPECT_EQ(result.os->comm_cycles, 12736.0);
  EXPECT_EQ(result.os->cross_comm_cycles, 9728.0);
  EXPECT_EQ(result.os->channel_messages,
            (std::vector<std::uint64_t>{32, 32, 32, 32, 32}));
  EXPECT_FALSE(result.os->deadlocked);
  EXPECT_EQ(result.total_cycles(), 154920.0);
  EXPECT_EQ(result.sim_events(), 449u);
}

TEST(SimRunGolden, SystemLevel) {
  apps::KernelBackedWorkload w = apps::dsp_chain_workload();
  partition::Mapping mapping(w.graph.num_tasks(), false);
  for (std::size_t i = 0; i < mapping.size(); i += 2) mapping[i] = true;
  SimRequest req;
  req.level = Level::kSystem;
  req.graph = &w.graph;
  req.mapping = &mapping;
  const SimResult result = run(req);
  ASSERT_TRUE(result.system.has_value());
  EXPECT_EQ(result.system->makespan, 1396.0);
  EXPECT_EQ(result.system->start,
            (std::vector<double>{0.0, 348.0, 388.0, 428.0, 468.0, 496.0}));
  EXPECT_EQ(result.system->finish,
            (std::vector<double>{300.0, 348.0, 388.0, 428.0, 468.0, 1396.0}));
  EXPECT_EQ(result.system->cpu_busy, 900.0);
  EXPECT_EQ(result.system->bus_busy, 196.0);
  EXPECT_EQ(result.system->bus_wait, 0.0);
  EXPECT_EQ(result.system->sim_events, 11u);
}

TEST(SimRunParity, ThreadCountDoesNotChangeResults) {
  // The seam must be as thread-agnostic as the engines under it: a batch
  // of runs spread over 1/2/4/8 worker threads produces bit-identical
  // reports in every slot, fault plan included.
  const ir::Cdfg kernel = apps::fir_kernel(4);
  const hw::HlsResult impl = make_impl(kernel);
  const auto samples = random_samples(kernel, 6, 33);
  constexpr std::size_t kRuns = 8;
  const auto run_batch = [&](std::size_t threads) {
    std::vector<CosimReport> out(kRuns);
    ThreadPool pool(threads);
    pool.parallel_for(kRuns, [&](std::size_t i) {
      CosimConfig cfg;
      cfg.level = kAllInterfaceLevels[i % 4];
      if (i >= 4) {
        cfg.fault_plan.add(fault::FaultSpec::peripheral_stall(0.4, 60));
        cfg.fault_seed = 100 + i;
      }
      out[i] = cosim(impl, samples, cfg).cosim.value();
    });
    return out;
  };
  const std::vector<CosimReport> baseline = run_batch(1);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const std::vector<CosimReport> got = run_batch(threads);
    for (std::size_t i = 0; i < kRuns; ++i) {
      expect_golden(got[i], snapshot(baseline[i], false));
    }
  }
}

TEST(SimRunApi, LevelNamesRoundTripAndRejectUnknown) {
  for (const Level level : kAllLevels) {
    const auto parsed = parse_level(level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(parse_level("pin").has_value());
  EXPECT_FALSE(parse_level("").has_value());
  EXPECT_FALSE(parse_level("cosim").has_value());
}

TEST(SimRunApi, MissingRequiredPointersThrow) {
  SimRequest req;  // kAccelerator with no impl/samples
  EXPECT_THROW(run(req), Error);
  SimRequest proc;
  proc.level = Level::kProcess;
  EXPECT_THROW(run(proc), Error);
  SimRequest system;
  system.level = Level::kSystem;
  EXPECT_THROW(run(system), Error);
}

}  // namespace
}  // namespace mhs::sim
