#include "inputs.h"

#include "apps/kernels.h"
#include "apps/workloads.h"
#include "base/error.h"
#include "base/rng.h"
#include "harness.h"
#include "ir/serialize.h"
#include "ir/task_graph_gen.h"

namespace perfbench {

using mhs::Rng;
namespace ir = mhs::ir;
namespace svc = mhs::svc;

ir::Cdfg build_kernel(const std::string& name) {
  namespace apps = mhs::apps;
  if (name == "fir8") return apps::fir_kernel(8);
  if (name == "iir_biquad") return apps::iir_biquad_kernel();
  if (name == "dct8") return apps::dct8_kernel();
  if (name == "xtea4") return apps::xtea_kernel(4);
  if (name == "median5") return apps::median5_kernel();
  if (name == "checksum8") return apps::checksum_kernel(8);
  if (name == "sad8") return apps::sad_kernel(8);
  if (name == "matmul3") return apps::matmul_kernel(3);
  if (name == "sobel3") return apps::sobel3_kernel();
  if (name == "quantize8") return apps::quantize_kernel(8);
  MHS_CHECK(false, "unknown kernel '" << name << "'");
  return {};
}

std::vector<FlowSpec> make_flow_pool(std::uint64_t seed) {
  std::vector<FlowSpec> pool;
  {
    mhs::apps::KernelBackedWorkload dsp = mhs::apps::dsp_chain_workload();
    FlowSpec spec;
    spec.name = "dsp_chain";
    spec.graph = dsp.graph;
    spec.kernels.assign(dsp.graph.num_tasks(), nullptr);
    for (std::size_t t = 0; t < dsp.kernels.size(); ++t) {
      if (dsp.kernels[t] == nullptr) continue;
      spec.storage.push_back(std::make_unique<ir::Cdfg>(*dsp.kernels[t]));
      spec.kernels[t] = spec.storage.back().get();
    }
    pool.push_back(std::move(spec));
  }
  // Fourteen layered specs of 8..16 tasks. Spec j takes n/2 consecutive
  // kinds of the menu starting at kind j, each twice (the first thrice
  // when n is odd), so every body repeats inside its spec and the specs'
  // costs spread smoothly instead of forming a few separate modes. With
  // dsp_chain the pool holds 15 specs, cycled in order: the median and
  // the 90th percentile then fall mid-way through one spec's share of
  // the ops (7.5 and 13.5 of 15), never on the edge between two.
  static const std::vector<std::string> menu = {
      "checksum8", "median5", "fir8", "iir_biquad", "sobel3",
      "sad8", "quantize8", "xtea4", "matmul3", "dct8"};
  for (std::size_t j = 0; j < 14; ++j) {
    const std::size_t n = 8 + j % 9;
    Rng rng(mix_seed(seed, 100 + j));
    std::vector<std::string> deck;
    for (std::size_t k = 0; k < n / 2; ++k) {
      deck.push_back(menu[(j + k) % menu.size()]);
      deck.push_back(menu[(j + k) % menu.size()]);
    }
    if (n % 2 == 1) deck.push_back(menu[j % menu.size()]);
    rng.shuffle(deck);
    ir::TaskGraphGenConfig gen;
    gen.shape = ir::GraphShape::kLayered;
    gen.num_tasks = deck.size();
    gen.width = 3.0;
    FlowSpec spec;
    spec.name = "layered" + std::to_string(j) + "_n" + std::to_string(n);
    spec.graph = ir::generate_task_graph(gen, rng);
    spec.graph.set_name(spec.name);
    for (const std::string& kind : deck) {
      spec.storage.push_back(std::make_unique<ir::Cdfg>(build_kernel(kind)));
      spec.kernels.push_back(spec.storage.back().get());
    }
    pool.push_back(std::move(spec));
  }
  return pool;
}

std::vector<ir::TaskGraph> make_tgff_pool(std::uint64_t seed,
                                          std::size_t count) {
  std::vector<ir::TaskGraph> graphs;
  for (std::size_t g = 0; g < count; ++g) {
    Rng rng(mix_seed(seed, 200 + g));
    ir::TaskGraphGenConfig gen;
    gen.shape = ir::GraphShape::kLayered;
    gen.num_tasks = 24;
    gen.width = 4.0;
    graphs.push_back(ir::generate_task_graph(gen, rng));
    graphs.back().set_name("tgff" + std::to_string(g));
  }
  return graphs;
}

std::vector<mhs::partition::Objective> sweep_objectives(
    const ir::TaskGraph& graph) {
  std::vector<mhs::partition::Objective> objectives;
  const double total = graph.total_sw_cycles();
  for (const double share : {0.3, 0.45, 0.6, 0.8}) {
    for (const double area_weight : {0.02, 0.2}) {
      mhs::partition::Objective o;
      o.latency_target = share * total;
      o.area_weight = area_weight;
      objectives.push_back(o);
    }
  }
  return objectives;
}

const char* class_name(RequestClass cls) {
  switch (cls) {
    case RequestClass::kHot: return "hot";
    case RequestClass::kLint: return "lint";
    case RequestClass::kCosimFir: return "cosim_fir8";
    case RequestClass::kCosimDct: return "cosim_dct8";
    case RequestClass::kFlow: return "flow";
  }
  return "?";
}

namespace {

svc::Request cosim_request(const std::string& kernel, std::uint64_t seed) {
  svc::Request r;
  r.endpoint = svc::Endpoint::kCosim;
  r.cosim.kernel = kernel;
  r.cosim.samples = 8;
  r.cosim.seed = seed;
  return r;
}

svc::Request flow_request(double latency_target) {
  svc::Request r;
  r.endpoint = svc::Endpoint::kFlow;
  r.flow.workload = "dsp_chain";
  r.flow.latency_target = latency_target;
  return r;
}

svc::Request lint_request(std::int64_t lo, std::int64_t hi) {
  svc::Request r;
  r.endpoint = svc::Endpoint::kLint;
  r.lint.ranges = true;
  r.lint.artifacts.push_back(ir::to_text(
      ir::with_input_ranges(mhs::apps::fir_kernel(8), ir::ValueRange{lo, hi})));
  return r;
}

}  // namespace

std::vector<svc::Request> make_hot_set(std::uint64_t seed) {
  Rng rng(mix_seed(seed, 300));
  std::vector<svc::Request> hot;
  hot.push_back(cosim_request("fir8", rng.next() % 1000));
  hot.push_back(cosim_request("fir8", 1000 + rng.next() % 1000));
  hot.push_back(cosim_request("dct8", rng.next() % 1000));
  hot.push_back(flow_request(rng.uniform(3000.0, 6000.0)));
  hot.push_back(lint_request(-rng.uniform_int(1, 1000), rng.uniform_int(1, 1000)));
  return hot;
}

MixRequest mix_request(std::uint64_t seed, const std::vector<svc::Request>& hot,
                       std::uint64_t client, std::uint64_t index) {
  Rng rng(mix_seed(mix_seed(seed, 400 + client), index));
  // Unique requests take their fresh parameter from a space keyed by
  // (client, index), above the hot set's range and below 2^53 so the
  // JSON wire form carries it exactly.
  const std::uint64_t fresh =
      (std::uint64_t{1} << 50) + (client << 40) + index;
  MixRequest m;
  const double draw = rng.uniform();
  if (draw < 0.40) {
    m.cls = RequestClass::kHot;
    m.request = hot[rng.next() % hot.size()];
  } else if (draw < 0.44) {
    m.cls = RequestClass::kLint;
    m.request = lint_request(-static_cast<std::int64_t>(fresh), 1 + rng.uniform_int(0, 1 << 20));
  } else if (draw < 0.67) {
    m.cls = RequestClass::kCosimFir;
    m.request = cosim_request("fir8", fresh);
  } else if (draw < 0.80) {
    m.cls = RequestClass::kCosimDct;
    m.request = cosim_request("dct8", fresh);
  } else {
    m.cls = RequestClass::kFlow;
    // Targets render at round-trip precision, so two 53-bit draws
    // collide (and hit the cache) with negligible probability.
    m.request = flow_request(2000.0 + 18000.0 * rng.uniform());
  }
  return m;
}

}  // namespace perfbench
