// Experiment E12 (paper reference [18], Vahid & Gajski TVLSI'95):
// incremental hardware estimation during HW/SW functional partitioning.
//
// Reproduced shapes:
//  * the incremental estimate equals the from-scratch estimate exactly
//    (zero error) after arbitrary add/remove sequences;
//  * one partitioning move costs O(log n) with the incremental estimator
//    vs. O(n) from scratch — timed here at 8/32/128/512 residents.
#include <algorithm>
#include <iostream>
#include <limits>

#include "base/rng.h"
#include "base/stats.h"
#include "bench_util.h"
#include "hw/estimate.h"
#include "obs/obs.h"

namespace mhs {
namespace {

std::vector<hw::HwProfile> make_profiles(std::size_t n,
                                         std::uint64_t seed) {
  Rng rng(seed);
  const hw::ComponentLibrary lib = hw::default_library();
  std::vector<hw::HwProfile> profiles;
  for (std::size_t i = 0; i < n; ++i) {
    ir::TaskCosts costs;
    costs.sw_cycles = rng.uniform(200, 8000);
    costs.hw_cycles = costs.sw_cycles / rng.uniform(2, 24);
    costs.hw_area = rng.uniform(100, 6000);
    costs.parallelism = rng.uniform();
    profiles.push_back(hw::profile_from_costs(costs, lib));
  }
  return profiles;
}

/// Nanoseconds per call of `move`: the best of five windows, each at
/// least 20 ms of back-to-back moves (best-of filters scheduler noise).
template <class Move>
double ns_per_move(Move&& move) {
  double best = std::numeric_limits<double>::infinity();
  for (int window = 0; window < 5; ++window) {
    std::size_t moves = 0;
    const obs::Stopwatch watch;
    do {
      for (int i = 0; i < 64; ++i) move();
      moves += 64;
    } while (watch.elapsed_ms() < 20.0);
    best = std::min(best, watch.elapsed_us() * 1e3 / moves);
  }
  return best;
}

/// Keeps the measured estimates observable so the moves are not elided.
volatile double g_sink = 0.0;

/// One partitioning move evaluated with the incremental estimator:
/// remove a function, read the area, add it back, read again.
double incremental_move_ns(std::size_t n) {
  const auto profiles = make_profiles(n, 42);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::IncrementalAreaEstimator estimator(lib);
  for (std::size_t i = 0; i < n; ++i) estimator.add(i, profiles[i]);
  std::size_t victim = 0;
  return ns_per_move([&] {
    estimator.remove(victim);
    g_sink = estimator.area();
    estimator.add(victim, profiles[victim]);
    g_sink = estimator.area();
    victim = (victim + 1) % n;
  });
}

/// The same move evaluated by full re-estimation over all residents.
double from_scratch_move_ns(std::size_t n) {
  const auto profiles = make_profiles(n, 42);
  const hw::ComponentLibrary lib = hw::default_library();
  std::vector<hw::HwProfile> working;
  std::size_t victim = 0;
  return ns_per_move([&] {
    // Remove: rebuild the resident list without the victim, estimate.
    working.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (i != victim) working.push_back(profiles[i]);
    }
    g_sink = hw::shared_area_from_scratch(lib, working);
    // Add back: full list, estimate.
    working.push_back(profiles[victim]);
    g_sink = hw::shared_area_from_scratch(lib, working);
    victim = (victim + 1) % n;
  });
}

void run() {
  bench::Reporter rep("bench_incremental_estimation",
                      "E12: incremental HW estimation ([18])");
  Rng rng(7);
  const auto profiles = make_profiles(64, 7);
  const hw::ComponentLibrary lib = hw::default_library();
  hw::IncrementalAreaEstimator estimator(lib);
  std::vector<std::size_t> resident;
  double max_err = 0.0;
  for (int step = 0; step < 2000; ++step) {
    const auto key = static_cast<std::size_t>(rng.uniform_int(0, 63));
    if (estimator.contains(key)) {
      estimator.remove(key);
      resident.erase(std::find(resident.begin(), resident.end(), key));
    } else {
      estimator.add(key, profiles[key]);
      resident.push_back(key);
    }
    std::vector<hw::HwProfile> current;
    for (const std::size_t k : resident) current.push_back(profiles[k]);
    max_err = std::max(
        max_err, relative_error(estimator.area(),
                                hw::shared_area_from_scratch(lib, current),
                                1.0));
  }
  TextTable table({"metric", "value"});
  table.add_row({"random add/remove steps", "2000"});
  table.add_row({"max relative error vs from-scratch", fmt(max_err, 12)});
  std::cout << table;
  rep.metric("max_relative_error", max_err, "fraction",
             bench::Direction::kLowerIsBetter);
  rep.claim("incremental estimate is exact after 2000 random add/remove "
            "steps",
            max_err < 1e-12);

  // Per-move cost against resident count: O(log n) incremental vs. O(n)
  // full re-estimation.
  const std::size_t sizes[] = {8, 32, 128, 512};
  TextTable timing({"residents", "incremental ns/move",
                    "from-scratch ns/move", "from-scratch / incremental"});
  std::vector<double> incremental, from_scratch;
  for (const std::size_t n : sizes) {
    incremental.push_back(incremental_move_ns(n));
    from_scratch.push_back(from_scratch_move_ns(n));
    timing.add_row({fmt(n), fmt(incremental.back(), 1),
                    fmt(from_scratch.back(), 1),
                    fmt(from_scratch.back() / incremental.back(), 2)});
    rep.metric("incremental_move_ns_" + std::to_string(n),
               incremental.back(), "ns", bench::Direction::kLowerIsBetter);
    rep.metric("from_scratch_move_ns_" + std::to_string(n),
               from_scratch.back(), "ns", bench::Direction::kLowerIsBetter);
  }
  std::cout << timing;
  // 64x more residents: a flat (logarithmic) move grows well under 4x, a
  // linear one well over 16x.
  const double incremental_growth = incremental.back() / incremental.front();
  const double from_scratch_growth =
      from_scratch.back() / from_scratch.front();
  std::cout << "growth 8 -> 512 residents: incremental "
            << fmt(incremental_growth, 2) << "x, from-scratch "
            << fmt(from_scratch_growth, 2) << "x\n";
  rep.claim("per-move cost is flat in resident count incrementally (<4x "
            "from 8 to 512) but linear from scratch (>16x), and the "
            "incremental move is faster at 512 residents",
            incremental_growth < 4.0 && from_scratch_growth > 16.0 &&
                incremental.back() < from_scratch.back());
}

}  // namespace
}  // namespace mhs

int main() {
  mhs::run();
  return 0;
}
