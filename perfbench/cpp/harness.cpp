#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "base/stats.h"
#include "obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : mhs::quantile(std::move(values), q);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::size_t samples_beyond(std::size_t n, int percentile) {
  return n * static_cast<std::size_t>(100 - percentile) / 100;
}

Tail tail_percentile(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (const int p : {90, 80, 75, 50}) {
    if (samples_beyond(values.size(), p) >= 10 || p == 50) {
      tail.percentile = p;
      tail.beyond = samples_beyond(values.size(), p);
      tail.value = quantile(values, p / 100.0);
      break;
    }
  }
  return tail;
}

Digest& Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (const char c : text) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::add(const std::vector<bool>& bits) {
  add(static_cast<std::uint64_t>(bits.size()));
  for (const bool b : bits) add(static_cast<std::uint64_t>(b));
  return *this;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Index of each event's enclosing parent (npos for roots), by interval
/// nesting among events of the same thread.
std::vector<std::size_t> parents(const std::vector<obs::SpanEvent>& events) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const obs::SpanEvent& x = events[a];
    const obs::SpanEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;  // an enclosing span sorts first
  });
  std::vector<std::size_t> parent(events.size(), npos);
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    const obs::SpanEvent& e = events[i];
    while (!stack.empty()) {
      const obs::SpanEvent& top = events[stack.back()];
      if (top.tid == e.tid &&
          e.start_us + e.dur_us <= top.start_us + top.dur_us) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) parent[i] = stack.back();
    stack.push_back(i);
  }
  return parent;
}

}  // namespace

std::vector<double> self_times_us(const std::vector<obs::SpanEvent>& events) {
  const std::vector<std::size_t> parent = parents(events);
  std::vector<double> self(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) self[i] = events[i].dur_us;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (parent[i] != static_cast<std::size_t>(-1)) {
      self[parent[i]] -= events[i].dur_us;
    }
  }
  return self;
}

double FlowAttribution::sum_us() const {
  double sum = nested_us + unattributed_us;
  for (const auto& [name, us] : phase_self_us) sum += us;
  return sum;
}

bool attribute_flow(const std::vector<obs::SpanEvent>& events,
                    FlowAttribution* out) {
  const std::vector<std::size_t> parent = parents(events);
  const std::vector<double> self = self_times_us(events);
  std::size_t root = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (parent[i] == static_cast<std::size_t>(-1)) {
      if (events[i].name != "flow" || root != static_cast<std::size_t>(-1)) {
        return false;
      }
      root = i;
    }
  }
  if (root == static_cast<std::size_t>(-1)) return false;
  // A negative self time means a child overran its parent or overlapped
  // a sibling; the spans do not form a tree whose parts add up.
  for (const double s : self) {
    if (s < -1e-3) return false;
  }
  *out = FlowAttribution{};
  out->wall_us = events[root].dur_us;
  out->unattributed_us = self[root];
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == root) continue;
    if (parent[i] == root) {
      out->phase_self_us[events[i].name] += self[i];
    } else {
      out->nested_us += self[i];
    }
  }
  return true;
}

std::string format_number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view text) {
  return "\"" + obs::json_escape(text) + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream metrics_os;
  bool first = true;
  for (const Metric& m : metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0.0;
    }
    metrics_os << (first ? "" : ",") << json_string(m.name)
               << ":{\"value\":" << format_number(value)
               << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{" << metrics_os.str() << "}}";
  return os.str();
}

std::size_t host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// Gives every thread of this process the CPU set `set`. A thread that
/// exits meanwhile is no error.
void set_process_cpus(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    sched_setaffinity(std::stoi(task.path().filename()), sizeof set, &set);
  }
}

}  // namespace

CpuRotation::CpuRotation(std::size_t width) : width_(width) {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (step_ > 0) set_process_cpus(allowed_);
}

void CpuRotation::next() {
  if (width_ >= cpus_.size()) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  for (std::size_t i = 0; i < width_; ++i) {
    CPU_SET(cpus_[(step_ + i) % cpus_.size()], &window);
  }
  ++step_;
  set_process_cpus(window);
}

std::string host_fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\":" << host_threads()
#if defined(__clang__)
     << ",\"compiler\":" << json_string("clang " __clang_version__)
#else
     << ",\"compiler\":" << json_string("gcc " __VERSION__)
#endif
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
  // the launching interpreter's peak whenever that one is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double closed_loop(double seconds, const std::function<void()>& op,
                   std::vector<double>* latencies_ms) {
  const obs::Stopwatch window;
  while (window.elapsed_us() < seconds * 1e6) {
    const obs::Stopwatch watch;
    op();
    latencies_ms->push_back(watch.elapsed_ms());
  }
  return window.elapsed_us() / 1e6;
}

double time_us(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const obs::Stopwatch watch;
    fn();
    samples.push_back(watch.elapsed_us());
  }
  return median(std::move(samples));
}

}  // namespace perfbench
