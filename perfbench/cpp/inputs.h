// Seeded input generation for the three perfbench workloads. Every
// generator is a pure function of the run seed: the same seed gives the
// same spec pool, graphs and request streams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/cdfg.h"
#include "ir/task_graph.h"
#include "partition/cost_model.h"
#include "svc/api.h"

namespace perfbench {

// ------------------------------------------------------------ flow_kernels

/// One specification of the flow pool: a task graph whose tasks carry
/// behavioural kernels. Kernel pointers index into `storage`.
struct FlowSpec {
  std::string name;
  mhs::ir::TaskGraph graph;
  std::vector<std::unique_ptr<mhs::ir::Cdfg>> storage;
  std::vector<const mhs::ir::Cdfg*> kernels;  ///< parallel to graph tasks
};

/// Builds one kernel of apps/kernels.h by name ("fir8", "dct8", ...).
mhs::ir::Cdfg build_kernel(const std::string& name);

/// apps::dsp_chain_workload() plus fourteen layered graphs of 8..16 tasks.
/// Each generated spec carries a fixed multiset of kernels in which
/// every body repeats; the seed draws the graph structure, its edge
/// volumes and which task gets which body.
std::vector<FlowSpec> make_flow_pool(std::uint64_t seed);

// ------------------------------------------------------------ explore_tgff

/// Annotation-only layered TGFF graphs of 24 tasks, one per sweep slot.
std::vector<mhs::ir::TaskGraph> make_tgff_pool(std::uint64_t seed,
                                               std::size_t count);

/// The sweep's eight objectives: latency targets {0.3, 0.45, 0.6, 0.8} x
/// total SW cycles, each with area weight 0.02 and 0.2.
std::vector<mhs::partition::Objective> sweep_objectives(
    const mhs::ir::TaskGraph& graph);

// --------------------------------------------------------------- serve_mix

/// How the dispatcher should satisfy a request of the mix.
enum class RequestClass { kHot, kLint, kCosimFir, kCosimDct, kFlow };
const char* class_name(RequestClass cls);

struct MixRequest {
  RequestClass cls = RequestClass::kHot;
  mhs::svc::Request request;
};

/// The mix's hot set: a few fixed requests (cosim, flow, lint) that the
/// warm-up evaluates once, so every later repeat is a cache hit.
std::vector<mhs::svc::Request> make_hot_set(std::uint64_t seed);

/// Request `index` of client `client`'s stream. Class shares: 40% hot
/// repeats, 4% unique lints, 23% unique fir8 cosims, 13% unique dct8
/// cosims, 20% unique dsp_chain flows. Flows are the slowest class, so
/// the 90th percentile falls on the median flow. Unique requests carry a fresh
/// cosim seed, latency target or input range, so they miss the cache.
/// `client` and `index` only seed the draw; streams of different
/// clients, and of the warm-up (client kWarmupClient), never share a
/// unique request.
MixRequest mix_request(std::uint64_t seed, const std::vector<mhs::svc::Request>& hot,
                       std::uint64_t client, std::uint64_t index);
inline constexpr std::uint64_t kWarmupClient = 1000;

}  // namespace perfbench
