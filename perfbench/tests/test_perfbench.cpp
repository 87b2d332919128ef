// Tests of perfbench's own helpers: the percentile rule, the output
// digests, the span self-time attribution, the seeded input generation
// and the result line.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <thread>

#include "harness.h"
#include "ir/serialize.h"
#include "obs/json.h"
#include "workload.h"
#include "inputs.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3.0}, 0.9), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile(ramp(11), 0.9), 9.0);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  // 100 samples: exactly ten lie beyond p90.
  const Tail p90 = tail_percentile(ramp(100));
  EXPECT_EQ(p90.percentile, 90);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_EQ(p90.samples, 100u);
  // 99 samples leave only nine beyond p90, so the rule steps down.
  const Tail p80 = tail_percentile(ramp(99));
  EXPECT_EQ(p80.percentile, 80);
  EXPECT_GE(p80.beyond, 10u);
  // 40 samples: p80 has eight beyond, p75 has ten.
  EXPECT_EQ(tail_percentile(ramp(40)).percentile, 75);
  // Too few for any tail: the median.
  EXPECT_EQ(tail_percentile(ramp(12)).percentile, 50);
  for (const std::size_t n : {20u, 39u, 50u, 100u, 1000u}) {
    const Tail t = tail_percentile(ramp(n));
    EXPECT_GE(t.beyond, 10u) << n;
    EXPECT_EQ(t.beyond, samples_beyond(n, t.percentile)) << n;
  }
}

cpu_set_t current_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  return set;
}

TEST(CpuRotationTest, VisitsEveryCpuAndRestoresTheSet) {
  const cpu_set_t before = current_cpus();
  const int n = CPU_COUNT(&before);
  {
    CpuRotation rotation(1);
    std::set<int> visited;
    for (int i = 0; i < n; ++i) {
      rotation.next();
      const cpu_set_t now = current_cpus();
      if (n == 1) continue;
      ASSERT_EQ(CPU_COUNT(&now), 1);
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &now)) visited.insert(cpu);
      }
    }
    if (n > 1) {
      EXPECT_EQ(visited.size(), static_cast<std::size_t>(n));
    }
  }
  const cpu_set_t after = current_cpus();
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(CpuRotationTest, MovesEveryThreadOfTheProcess) {
  const cpu_set_t before = current_cpus();
  const int n = CPU_COUNT(&before);
  if (n < 3) GTEST_SKIP() << "needs three CPUs for a window of two";
  std::atomic<bool> done{false};
  std::thread other([&] {
    while (!done.load()) std::this_thread::yield();
  });
  cpu_set_t theirs;
  {
    CpuRotation rotation(2);
    rotation.next();
    const cpu_set_t mine = current_cpus();
    EXPECT_EQ(CPU_COUNT(&mine), 2);
    ASSERT_EQ(pthread_getaffinity_np(other.native_handle(), sizeof theirs, &theirs), 0);
    EXPECT_TRUE(CPU_EQUAL(&mine, &theirs));
  }
  ASSERT_EQ(pthread_getaffinity_np(other.native_handle(), sizeof theirs, &theirs), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &theirs));
  done = true;
  other.join();
}

TEST(DigestTest, SeparatesBitPatternsAndFieldBoundaries) {
  EXPECT_EQ(Digest().add(1.0).value(), Digest().add(1.0).value());
  EXPECT_NE(Digest().add(0.0).value(), Digest().add(-0.0).value());
  EXPECT_NE(Digest().add("ab").add("c").value(),
            Digest().add("a").add("bc").value());
  EXPECT_NE(Digest().add(std::vector<bool>{true, false}).value(),
            Digest().add(std::vector<bool>{false, true}).value());
  EXPECT_NE(Digest().add(std::uint64_t{1}).value(),
            Digest().add(std::uint64_t{2}).value());
}

obs::SpanEvent span(const char* name, double start, double dur,
                    std::uint32_t tid = 0) {
  obs::SpanEvent e;
  e.name = name;
  e.category = "flow";
  e.start_us = start;
  e.dur_us = dur;
  e.tid = tid;
  return e;
}

TEST(Attribution, SelfTimesSumToTheRoot) {
  const std::vector<obs::SpanEvent> events = {
      span("verify.compile", 1, 2),  span("specify", 3, 10),
      span("estimate", 13, 20),      span("cosim", 40, 50),
      span("verify.equiv", 45, 10),  span("register", 60, 20),
      span("flow", 0, 100),
  };
  const std::vector<double> self = self_times_us(events);
  EXPECT_DOUBLE_EQ(self[3], 20.0);   // cosim minus its two children
  EXPECT_DOUBLE_EQ(self[6], 18.0);   // flow minus its four phases
  FlowAttribution a;
  ASSERT_TRUE(attribute_flow(events, &a));
  EXPECT_DOUBLE_EQ(a.wall_us, 100.0);
  EXPECT_DOUBLE_EQ(a.unattributed_us, 18.0);
  EXPECT_DOUBLE_EQ(a.nested_us, 30.0);
  EXPECT_DOUBLE_EQ(a.phase_self_us.at("cosim"), 20.0);
  EXPECT_DOUBLE_EQ(a.sum_us(), a.wall_us);
}

TEST(Attribution, RejectsSpansOutsideTheFlow) {
  FlowAttribution a;
  EXPECT_FALSE(attribute_flow({span("specify", 0, 5)}, &a));
  EXPECT_FALSE(attribute_flow({span("flow", 0, 10), span("specify", 20, 5)}, &a));
  // Another thread's span is not nested in the flow's.
  EXPECT_FALSE(attribute_flow({span("flow", 0, 10), span("specify", 1, 5, 1)}, &a));
  // Overlapping siblings claim more than the flow's wall time.
  EXPECT_FALSE(attribute_flow(
      {span("flow", 0, 10), span("specify", 0, 8), span("estimate", 5, 5)}, &a));
}

TEST(Generation, FlowPoolIsAFunctionOfTheSeed) {
  const std::vector<FlowSpec> a = make_flow_pool(7);
  const std::vector<FlowSpec> b = make_flow_pool(7);
  const std::vector<FlowSpec> c = make_flow_pool(8);
  ASSERT_EQ(a.size(), 15u);
  EXPECT_EQ(a[0].name, "dsp_chain");
  bool differs = false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(mhs::ir::to_text(a[s].graph), mhs::ir::to_text(b[s].graph));
    ASSERT_EQ(a[s].kernels.size(), a[s].graph.num_tasks());
    for (std::size_t t = 0; t < a[s].kernels.size(); ++t) {
      if (a[s].kernels[t] == nullptr) continue;
      EXPECT_EQ(mhs::ir::content_hash(*a[s].kernels[t]),
                mhs::ir::content_hash(*b[s].kernels[t]));
      if (s > 0 && mhs::ir::content_hash(*a[s].kernels[t]) !=
                       mhs::ir::content_hash(*c[s].kernels[t])) {
        differs = true;
      }
    }
    differs = differs || mhs::ir::to_text(a[s].graph) != mhs::ir::to_text(c[s].graph);
  }
  EXPECT_TRUE(differs);
}

TEST(Generation, GeneratedSpecsRepeatEveryBody) {
  for (const FlowSpec& spec : make_flow_pool(3)) {
    if (spec.name == "dsp_chain") continue;
    std::map<std::uint64_t, int> bodies;
    for (const mhs::ir::Cdfg* k : spec.kernels) ++bodies[mhs::ir::content_hash(*k)];
    for (const auto& [hash, count] : bodies) EXPECT_GE(count, 2) << spec.name;
  }
}

TEST(Generation, TgffPoolAndObjectives) {
  const auto a = make_tgff_pool(5, 3);
  const auto b = make_tgff_pool(5, 3);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].num_tasks(), 24u);
    EXPECT_EQ(mhs::ir::to_text(a[g]), mhs::ir::to_text(b[g]));
  }
  EXPECT_NE(mhs::ir::to_text(a[0]), mhs::ir::to_text(make_tgff_pool(6, 1)[0]));
  const auto objectives = sweep_objectives(a[0]);
  ASSERT_EQ(objectives.size(), 8u);
  EXPECT_DOUBLE_EQ(objectives[0].latency_target, 0.3 * a[0].total_sw_cycles());
  EXPECT_DOUBLE_EQ(objectives[7].area_weight, 0.2);
}

TEST(Generation, RequestMixIsAFunctionOfTheSeed) {
  const auto hot = make_hot_set(11);
  EXPECT_EQ(hot.size(), make_hot_set(11).size());
  std::map<RequestClass, int> classes;
  std::set<std::string> unique;
  for (std::uint64_t client = 0; client < 2; ++client) {
    for (std::uint64_t i = 0; i < 400; ++i) {
      const MixRequest m = mix_request(11, hot, client, i);
      EXPECT_EQ(m.request.json(), mix_request(11, hot, client, i).request.json());
      ++classes[m.cls];
      if (m.cls != RequestClass::kHot) {
        EXPECT_TRUE(unique.insert(m.request.json()).second) << "repeated miss";
      }
    }
  }
  // Every class shows up, and hot repeats are near their 40% share.
  EXPECT_EQ(classes.size(), 5u);
  EXPECT_NEAR(classes[RequestClass::kHot] / 800.0, 0.40, 0.06);
  EXPECT_NE(mix_request(11, hot, 0, 0).request.json() +
                mix_request(11, hot, 0, 1).request.json(),
            mix_request(12, make_hot_set(12), 0, 0).request.json() +
                mix_request(12, make_hot_set(12), 0, 1).request.json());
}

TEST(Output, ResultLineIsValidJson) {
  const std::string line = result_json(
      true, 10, 0, {{"op_p50_ms", "ms", 1.25}, {"setup_s", "s", 0.1}});
  EXPECT_TRUE(obs::json_is_valid(line)) << line;
  const auto doc = obs::json_parse(line);
  ASSERT_TRUE(doc);
  EXPECT_TRUE(doc->find("correct")->as_bool());
  EXPECT_EQ(doc->find("attempted")->as_number(), 10.0);
  EXPECT_EQ(doc->find("metrics")->find("op_p50_ms")->find("value")->as_number(), 1.25);
  EXPECT_EQ(doc->find("metrics")->find("setup_s")->find("unit")->as_string(), "s");
}

TEST(Output, NonFiniteValuesStayValidAndMarkTheRunIncorrect) {
  const std::string line = result_json(
      true, 1, 0, {{"x", "ms", std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_TRUE(obs::json_is_valid(line)) << line;
  EXPECT_FALSE(obs::json_parse(line)->find("correct")->as_bool());
}

TEST(Output, HostFingerprintIsValidJson) {
  EXPECT_TRUE(obs::json_is_valid(host_fingerprint_json()));
  EXPECT_TRUE(obs::json_is_valid(json_string("quote\" back\\ ctl\x01")));
}

// The traced run prints exactly the per-layer metrics BENCHMARK.json
// declares, in its order and with its units.
TEST(Output, LayerMetricsMatchBenchmarkJson) {
  std::ifstream file(PERFBENCH_BENCHMARK_JSON);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  const auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc) << PERFBENCH_BENCHMARK_JSON;
  const auto& declared = doc->find("per_layer")->as_array();
  ASSERT_EQ(declared.size(), layer_metrics().size());
  for (std::size_t i = 0; i < declared.size(); ++i) {
    EXPECT_EQ(declared[i].find("name")->as_string(), layer_metrics()[i].name);
    EXPECT_EQ(declared[i].find("unit")->as_string(), layer_metrics()[i].unit);
  }
}

}  // namespace
}  // namespace perfbench
