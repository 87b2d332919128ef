// Tests for hardware implementation selection (cosynth/impl_select).
#include <gtest/gtest.h>

#include "apps/kernels.h"
#include "base/table.h"
#include "cosynth/run.h"

namespace mhs::cosynth {
namespace {

ImplMenu toy_menu(const char* name, double weight,
                  std::initializer_list<std::pair<double, double>> av) {
  ImplMenu menu;
  menu.task_name = name;
  menu.weight = weight;
  int i = 0;
  for (const auto& [area, cycles] : av) {
    menu.variants.push_back(
        ImplVariant{concat("v", std::to_string(i++)), area, cycles});
  }
  return menu;
}

/// Selection through the one sanctioned entry point (menus carry no IR,
/// so run() adds nothing beyond the dispatch).
ImplSelection run_select(const std::vector<ImplMenu>& menus,
                         double area_budget) {
  Request request;
  request.menus = menus;
  request.area_budget = area_budget;
  return *run(Target::kImplSelect, request).impl_select;
}

TEST(ImplSelect, PicksFastestWithinBudget) {
  // One task, three variants: (area, cycles) = (10,100),(50,40),(200,10).
  const std::vector<ImplMenu> menus = {
      toy_menu("t", 1.0, {{10, 100}, {50, 40}, {200, 10}})};
  const ImplSelection loose = run_select(menus, 1000.0);
  ASSERT_TRUE(loose.feasible);
  EXPECT_DOUBLE_EQ(loose.total_weighted_cycles, 10.0);
  const ImplSelection mid = run_select(menus, 60.0);
  EXPECT_DOUBLE_EQ(mid.total_weighted_cycles, 40.0);
  const ImplSelection tight = run_select(menus, 15.0);
  EXPECT_DOUBLE_EQ(tight.total_weighted_cycles, 100.0);
}

TEST(ImplSelect, InfeasibleWhenNothingFits) {
  const std::vector<ImplMenu> menus = {
      toy_menu("t", 1.0, {{10, 100}}),
      toy_menu("u", 1.0, {{10, 100}})};
  EXPECT_FALSE(run_select(menus, 15.0).feasible);
  EXPECT_TRUE(run_select(menus, 20.0).feasible);
}

TEST(ImplSelect, ExactOverInteractingBudget) {
  // Two tasks; greedy (give the heavier task the fast variant) is wrong:
  // the optimum gives BOTH tasks the medium variants.
  const std::vector<ImplMenu> menus = {
      toy_menu("a", 1.0, {{10, 100}, {55, 50}, {100, 45}}),
      toy_menu("b", 1.0, {{10, 100}, {55, 50}, {100, 45}})};
  const ImplSelection s = run_select(menus, 110.0);
  ASSERT_TRUE(s.feasible);
  // Greedy fast-first would take (100,45) + forced (10,100) = 145.
  // Optimal: (55,50) + (55,50) = 100.
  EXPECT_DOUBLE_EQ(s.total_weighted_cycles, 100.0);
  EXPECT_LE(s.total_area, 110.0);
}

TEST(ImplSelect, WeightsSteerTheBudget) {
  // Same menus, wildly different weights: the hot task gets the fast
  // variant, the cold one the small variant.
  const std::vector<ImplMenu> menus = {
      toy_menu("hot", 100.0, {{10, 100}, {200, 10}}),
      toy_menu("cold", 1.0, {{10, 100}, {200, 10}})};
  const ImplSelection s = run_select(menus, 250.0);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(menus[0].variants[s.chosen[0]].area, 200.0);
  EXPECT_EQ(menus[1].variants[s.chosen[1]].area, 10.0);
}

TEST(ImplSelect, MenuFromRealKernelsHasSaneShape) {
  const hw::ComponentLibrary lib = hw::default_library();
  const ir::Cdfg kernel = apps::fir_kernel(8);
  const ImplMenu menu = build_impl_menu(kernel, lib, 64);
  ASSERT_GE(menu.variants.size(), 4u);  // min_area, min_latency, IIs...
  // min_area is the cheapest variant; min_latency among the fastest
  // sequential ones; pipelined II=1 the fastest overall.
  const ImplVariant& min_area = menu.variants[0];
  const ImplVariant& min_latency = menu.variants[1];
  EXPECT_LT(min_area.area, min_latency.area);
  EXPECT_GT(min_area.batch_cycles, min_latency.batch_cycles);
  double fastest = 1e300;
  for (const ImplVariant& v : menu.variants) {
    fastest = std::min(fastest, v.batch_cycles);
  }
  bool pipelined_fastest = false;
  for (const ImplVariant& v : menu.variants) {
    if (v.name.rfind("pipelined", 0) == 0 &&
        v.batch_cycles == fastest) {
      pipelined_fastest = true;
    }
  }
  EXPECT_TRUE(pipelined_fastest);
}

TEST(ImplSelect, EndToEndBudgetSweepMonotone) {
  const hw::ComponentLibrary lib = hw::default_library();
  std::vector<ImplMenu> menus;
  menus.push_back(build_impl_menu(apps::fir_kernel(8), lib, 32, 2.0));
  menus.push_back(build_impl_menu(apps::median5_kernel(), lib, 32, 1.0));
  menus.push_back(build_impl_menu(apps::checksum_kernel(4), lib, 32, 1.0));
  double prev = 1e300;
  for (const double budget : {2000.0, 5000.0, 12000.0, 40000.0}) {
    const ImplSelection s = run_select(menus, budget);
    ASSERT_TRUE(s.feasible) << budget;
    EXPECT_LE(s.total_area, budget + 1e-9);
    EXPECT_LE(s.total_weighted_cycles, prev + 1e-9) << budget;
    prev = s.total_weighted_cycles;
  }
}

}  // namespace
}  // namespace mhs::cosynth
