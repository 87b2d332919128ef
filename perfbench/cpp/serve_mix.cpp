// serve_mix: an in-process svc::Server over loopback with nproc/4
// workers, driven by nproc/4 closed-loop keep-alive clients replaying a
// seeded request mix. Every response body is checked byte for byte
// against an in-process dispatcher evaluating the same request.
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/workloads.h"
#include "base/rng.h"
#include "core/flow.h"
#include "hw/hls.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/dispatch.h"
#include "svc/server.h"
#include "workload.h"
#include "inputs.h"

namespace perfbench {

namespace svc = mhs::svc;

namespace {

/// Requests of the warm-up stream sent after the hot set, so every
/// endpoint's code path is warm before the window opens.
constexpr std::uint64_t kWarmupRequests = 12;

/// Peak RSS is read when this many requests have completed. The result
/// cache grows with every unique request served, so a reading at the
/// window's end would grow with throughput and turn a speedup into a
/// memory regression; at a fixed request count it shows memory bought
/// per request. Runs of a few seconds or more reach it.
constexpr std::uint64_t kRssRequests = 3000;

/// How long the service's threads stay on one window of CPUs.
constexpr double kRotateMs = 50.0;

std::uint64_t body_digest(std::string_view body) {
  return Digest().add(body).value();
}

/// One dispatcher behind two servers: tracing off (the measured path)
/// and, in traced runs, request tracing on. Sharing the dispatcher means
/// one warm-up fills the result cache both servers answer hits from.
struct Service {
  svc::Dispatcher dispatcher;
  std::unique_ptr<svc::Server> plain;
  std::unique_ptr<svc::Server> traced;

  Service(std::size_t workers, std::size_t clients, bool with_traced) {
    const auto handler = [this](const svc::Request& request,
                                const obs::TraceContext& trace,
                                svc::RequestOutcome* outcome) {
      return dispatcher.handle(request, trace, outcome);
    };
    svc::ServerConfig config;
    config.workers = workers;
    config.max_connections = clients + 4;
    config.max_queue = 4 * clients;
    config.request_tracing = false;
    plain = std::make_unique<svc::Server>(config, handler);
    if (with_traced) {
      config.request_tracing = true;
      config.recorder_entries = 1 << 15;
      traced = std::make_unique<svc::Server>(config, handler);
    }
  }

  bool start(std::string* error) {
    return plain->start(error) && (!traced || traced->start(error));
  }
  std::uint64_t rejected() const {
    std::uint64_t n = 0;
    for (const svc::Server* s : {plain.get(), traced.get()}) {
      if (s == nullptr) continue;
      n += s->stats().overloaded + s->stats().conn_rejected;
    }
    return n;
  }
};

/// The warm-up: the hot set, then the warm-up client's stream prefix.
std::vector<svc::Request> warmup_requests(std::uint64_t seed,
                                          const std::vector<svc::Request>& hot) {
  std::vector<svc::Request> requests = hot;
  for (std::uint64_t i = 0; i < kWarmupRequests; ++i) {
    requests.push_back(mix_request(seed, hot, kWarmupClient, i).request);
  }
  return requests;
}

/// Running sums of the partitioned latency and HW area that /v1/flow
/// responses report.
struct DesignSum {
  double latency_cycles = 0.0;
  double hw_area = 0.0;
  double flows = 0.0;

  void add(const std::string& result_json) {
    const std::optional<obs::JsonValue> result = obs::json_parse(result_json);
    const obs::JsonValue* latency = result ? result->find("latency_cycles") : nullptr;
    const obs::JsonValue* area = result ? result->find("hw_area") : nullptr;
    if (latency == nullptr || area == nullptr) return;
    latency_cycles += latency->number_or(0.0);
    hw_area += area->number_or(0.0);
    flows += 1.0;
  }
};

struct Record {
  std::uint64_t index = 0;
  RequestClass cls = RequestClass::kHot;
  bool traced = false;
  double ms = 0.0;
  int status = 0;
  std::uint64_t body = 0;
};

/// Kernel-layer timings over the bodies the mix's misses evaluate:
/// fir8 and dct8 behind /v1/cosim, dsp_chain's kernels behind /v1/flow,
/// weighted by how many misses of each class the window served.
void time_serve_layers(const std::vector<std::vector<Record>>& records,
                       Outcome* out) {
  double fir = 0.0, dct = 0.0, flows = 0.0;
  for (const auto& client : records) {
    for (const Record& r : client) {
      fir += r.cls == RequestClass::kCosimFir;
      dct += r.cls == RequestClass::kCosimDct;
      flows += r.cls == RequestClass::kFlow;
    }
  }
  const mhs::ir::Cdfg fir8 = build_kernel("fir8");
  const mhs::ir::Cdfg dct8 = build_kernel("dct8");
  const mhs::apps::KernelBackedWorkload dsp = mhs::apps::dsp_chain_workload();
  std::vector<WeightedKernel> kernels = {{&fir8, fir}, {&dct8, dct}};
  for (const mhs::ir::Cdfg* k : dsp.kernels) {
    if (k != nullptr) kernels.push_back({k, flows});
  }
  time_kernel_layers(kernels, &out->layer);

  // /v1/cosim: min-area synthesis + register-level sim::run of 8 samples.
  const mhs::hw::ComponentLibrary lib = mhs::hw::default_library();
  mhs::hw::HlsConstraints constraints;
  constraints.goal = mhs::hw::HlsGoal::kMinArea;
  double sim_us = 0.0, cycles = 0.0;
  for (const auto& [kernel, weight] :
       std::vector<std::pair<const mhs::ir::Cdfg*, double>>{{&fir8, fir},
                                                            {&dct8, dct}}) {
    const mhs::hw::HlsResult impl = mhs::hw::synthesize(*kernel, lib, constraints);
    mhs::Rng rng(7);
    std::vector<std::vector<std::int64_t>> samples(8);
    for (auto& s : samples) {
      for (std::size_t k = 0; k < kernel->inputs().size(); ++k) {
        s.push_back(rng.uniform_int(-128, 127));
      }
    }
    mhs::sim::SimRequest request;
    request.impl = &impl;
    request.samples = &samples;
    const SimTimes t = time_sim(request);
    sim_us += weight * t.us;
    cycles += weight * t.cycles;
  }
  if (fir + dct > 0.0) {
    out->layer["sim.run_us"] = sim_us / (fir + dct);
    out->layer["sim.cycles_per_host_s"] = cycles / (sim_us / 1e6);
  }

  // /v1/flow: partition + cosynth over dsp_chain's annotated graph.
  if (flows > 0.0) {
    const mhs::core::FlowConfig config = mhs::core::FlowConfig::defaults();
    const mhs::ir::TaskGraph annotated =
        mhs::core::annotate_costs(dsp.graph, dsp.kernels, config);
    const mhs::partition::CostModel model(annotated, config.library, config.comm);
    const ModelTimes t = time_model_layers(model, config);
    out->layer["partition.run_us"] = t.partition_us;
    out->layer["cosynth.run_us"] = t.cosynth_us;
  }
}

/// p50 of each flight-recorder bucket over the POST requests the traced
/// server recorded, read back through GET /v1/requests.
bool recorder_buckets(std::uint16_t port, Outcome* out) {
  std::string error;
  const std::optional<svc::HttpResult> result =
      svc::http_get("127.0.0.1", port, "/v1/requests", &error);
  if (!result || result->status != 200) return false;
  const std::optional<obs::JsonValue> doc = obs::json_parse(result->body);
  const obs::JsonValue* body = doc ? doc->find("result") : nullptr;
  const obs::JsonValue* entries = body ? body->find("entries") : nullptr;
  if (entries == nullptr || !entries->is_array()) return false;
  std::map<std::string, std::vector<double>> buckets;
  for (const obs::JsonValue& e : entries->as_array()) {
    const obs::JsonValue* endpoint = e.find("endpoint");
    if (endpoint == nullptr || endpoint->string_or("") == "requests") continue;
    for (const char* name : {"parse_us", "queue_us", "dispatch_us", "respond_us"}) {
      const obs::JsonValue* v = e.find(name);
      if (v != nullptr) buckets[name].push_back(v->number_or(0.0));
    }
  }
  for (const auto& [name, values] : buckets) {
    out->layer["svc." + name + "_p50"] = median(values);
  }
  return !buckets.empty();
}

}  // namespace

void run_serve_mix(const Options& options, Outcome* out) {
  // A quarter of the cores each for clients and workers, so that they
  // and the event loop stay well inside nproc. In interleaved runs on a
  // 4-core VM, the throughput of 2 clients x 2 workers spread by 0.41
  // (interquartile range over median) and that of 1 x 1 by 0.18, before
  // the CPU rotation below.
  const std::size_t clients = std::max<std::size_t>(1, host_threads() / 4);
  const std::vector<svc::Request> hot = make_hot_set(options.seed);
  const std::vector<svc::Request> warmup = warmup_requests(options.seed, hot);

  std::unique_ptr<Service> service;
  const auto setup = [&] {
    service.reset();
    service = std::make_unique<Service>(clients, clients, options.trace);
    std::string error;
    if (!service->start(&error)) {
      throw std::runtime_error("server did not start: " + error);
    }
    svc::HttpClient client("127.0.0.1", service->plain->port());
    for (const svc::Request& request : warmup) {
      svc::HttpResult result;
      if (!client.request("POST", svc::endpoint_path(request.endpoint),
                          request.json(), &result, &error) ||
          result.status != 200) {
        throw std::runtime_error("warm-up request failed: " + error);
      }
    }
  };
  begin_setup(setup, out);

  // The window: clients switch between the plain and the traced server
  // at the block boundaries run_blocks sets on this thread.
  std::atomic<bool> traced_block{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  double rss_mb = 0.0;
  obs::Registry trace_registry;
  std::vector<std::vector<Record>> records(clients);
  const svc::DispatchStats before = service->dispatcher.stats();
  const std::uint64_t rejected_before = service->rejected();

  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      svc::HttpClient plain("127.0.0.1", service->plain->port());
      std::unique_ptr<svc::HttpClient> traced;
      if (service->traced) {
        traced = std::make_unique<svc::HttpClient>("127.0.0.1",
                                                   service->traced->port());
      }
      for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const bool on = traced_block.load(std::memory_order_acquire);
        const MixRequest m = mix_request(options.seed, hot, c, i);
        svc::HttpClient& http = on ? *traced : plain;
        Record r;
        r.index = i;
        r.cls = m.cls;
        r.traced = on;
        svc::HttpResult result;
        std::string error;
        const obs::Stopwatch watch;
        const bool ok = http.request("POST", svc::endpoint_path(m.request.endpoint),
                                     m.request.json(), &result, &error);
        r.ms = watch.elapsed_ms();
        r.status = ok ? result.status : 0;
        r.body = body_digest(result.body);
        records[c].push_back(r);
        if (completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
            kRssRequests) {
          rss_mb = peak_rss_mb();
        }
      }
    });
  }
  {
    // The service's threads (clients, event loops, workers) share a
    // window of `clients` CPUs that moves one CPU on every kRotateMs. A
    // request then hands over between threads on one CPU, and the run
    // takes the mean speed of the host's CPUs. On a 4-core VM, against
    // interleaved runs left to the scheduler, this cut the interquartile
    // range over median over eight seeds from 0.14 to 0.04 (op_p50_ms)
    // and from 0.15 to 0.05 (throughput_ops_s).
    CpuRotation rotation(clients);
    out->untraced_window_s =
        run_blocks(options.seconds, options.trace, [&](bool on, double block_s) {
          obs::set_registry(on ? &trace_registry : nullptr);
          traced_block.store(on, std::memory_order_release);
          const obs::Stopwatch watch;
          for (double left_ms = block_s * 1e3; left_ms > 0.0;
               left_ms = block_s * 1e3 - watch.elapsed_ms()) {
            rotation.next();
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                std::min(left_ms, kRotateMs)));
          }
        });
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : client_threads) t.join();
  obs::set_registry(nullptr);
  const svc::DispatchStats after = service->dispatcher.stats();
  const std::uint64_t rejected = service->rejected() - rejected_before;
  out->peak_rss_mb = rss_mb > 0.0 ? rss_mb : peak_rss_mb();

  // Reference: a fresh in-process dispatcher, warmed the same way, answers
  // every request again. Hot requests are hits and every other request is
  // unique, so the replay order does not change any response. A traced
  // run replays on `clients` threads, the loopback's concurrency, so the
  // two latencies differ by the HTTP layer alone; otherwise the replay
  // uses every core.
  svc::Dispatcher reference;
  for (const svc::Request& request : warmup) (void)reference.handle(request);
  std::vector<std::pair<std::size_t, const Record*>> all;
  for (std::size_t c = 0; c < clients; ++c) {
    for (const Record& r : records[c]) all.emplace_back(c, &r);
  }
  const std::size_t checkers = options.trace ? clients : host_threads();
  std::vector<std::vector<double>> inproc_ms(checkers);
  std::vector<std::vector<std::string>> mismatches(checkers);
  std::vector<DesignSum> designs(checkers);
  std::vector<std::thread> checker_threads;
  for (std::size_t t = 0; t < checkers; ++t) {
    checker_threads.emplace_back([&, t] {
      for (std::size_t k = t; k < all.size(); k += checkers) {
        const auto [c, r] = all[k];
        const svc::Request request =
            mix_request(options.seed, hot, c, r->index).request;
        const obs::Stopwatch watch;
        const svc::Response response = reference.handle(request);
        const double ms = watch.elapsed_ms();
        if (!r->traced) inproc_ms[t].push_back(ms);
        if (request.endpoint == svc::Endpoint::kFlow) {
          designs[t].add(response.result_json);
        }
        if (r->status != 200 || body_digest(response.json()) != r->body) {
          mismatches[t].push_back(std::string(class_name(r->cls)) + " request " +
                                  std::to_string(c) + "/" + std::to_string(r->index) +
                                  " answered " + std::to_string(r->status) +
                                  (r->status == 200 ? " with a body that differs "
                                                      "from svc::run"
                                                    : ""));
        }
      }
    });
  }
  for (std::thread& t : checker_threads) t.join();

  std::vector<double> hit_ms, miss_ms, loopback_ms, inproc_all;
  for (std::size_t c = 0; c < clients; ++c) {
    for (const Record& r : records[c]) {
      ++out->attempted;
      (r.traced ? out->traced_ms : out->untraced_ms).push_back(r.ms);
      if (r.traced) continue;
      loopback_ms.push_back(r.ms);
      (r.cls == RequestClass::kHot ? hit_ms : miss_ms).push_back(r.ms);
    }
  }
  DesignSum design;
  for (std::size_t t = 0; t < checkers; ++t) {
    for (const std::string& m : mismatches[t]) out->fail(m);
    inproc_all.insert(inproc_all.end(), inproc_ms[t].begin(), inproc_ms[t].end());
    design.latency_cycles += designs[t].latency_cycles;
    design.hw_area += designs[t].hw_area;
    design.flows += designs[t].flows;
  }
  if (design.flows > 0) {
    out->design_latency_cycles = design.latency_cycles / design.flows;
    out->design_hw_area = design.hw_area / design.flows;
  }
  if (options.trace) {
    auto& layer = out->layer;
    const double requests = static_cast<double>(after.requests - before.requests);
    layer["svc.cache_hit_ratio"] =
        static_cast<double>(after.cache_hits - before.cache_hits) / requests;
    layer["svc.evaluations_per_request"] =
        static_cast<double>(after.evaluations - before.evaluations) / requests;
    layer["svc.rejected"] = static_cast<double>(rejected);
    layer["svc.hit_p50_ms"] = median(hit_ms);
    layer["svc.miss_p50_ms"] = median(miss_ms);
    layer["svc.http_overhead_us"] =
        1000.0 * (median(loopback_ms) - median(inproc_all));
    if (!recorder_buckets(service->traced->port(), out)) {
      out->fail("GET /v1/requests returned no flight-recorder entries");
    }
    // Workers merge per-request registries into trace_registry after they
    // answer; stopping the servers joins them before it is read.
    service.reset();
    double traced_requests = 0.0;
    for (const auto& client : records) {
      for (const Record& r : client) traced_requests += r.traced;
    }
    if (traced_requests > 0.0) {
      layer["hw.syntheses_per_op"] =
          static_cast<double>(trace_registry.counter("hls.syntheses")) /
          traced_requests;
      layer["partition.evaluations_per_op"] =
          partition_evaluations(trace_registry) / traced_requests;
    }
    out->trace.merge_from(trace_registry);
    time_serve_layers(records, out);
  }
  end_setup(setup, out);
}

}  // namespace perfbench
