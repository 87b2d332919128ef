// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload flow_kernels|explore_tgff|serve_mix --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload for S seconds of measurement and prints, as the last
// line of stdout, {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A JSON report (host fingerprint, both metric sets, sample
// counts, failures) and, for traced runs, a Chrome trace of the traced
// ops are written to DIR.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/json.h"
#include "workload.h"

namespace perfbench {
namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload flow_kernels|explore_tgff|"
               "serve_mix --seed N --seconds S --trace 0|1 [--out DIR]\n";
  return 2;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << json_string(metrics[i].name) << ":"
       << format_number(metrics[i].value);
  }
  return os.str() + "}";
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  return static_cast<bool>(file);
}

int run(int argc, char** argv) {
  Options options;
  std::string out_dir = "perfbench/out";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds > 0 and --trace are required");
  }

  Outcome out;
  if (options.workload == "flow_kernels") {
    run_flow_kernels(options, &out);
  } else if (options.workload == "explore_tgff") {
    run_explore_tgff(options, &out);
  } else if (options.workload == "serve_mix") {
    run_serve_mix(options, &out);
  } else {
    return usage("unknown workload " + options.workload);
  }

  const Tail tail = tail_percentile(out.untraced_ms);
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(out.setup_s)},
      {"op_p50_ms", "ms", median(out.untraced_ms)},
      {"op_p90_ms", "ms", tail.value},
      {"throughput_ops_s", "ops/s",
       out.untraced_window_s > 0.0
           ? static_cast<double>(out.untraced_ms.size()) / out.untraced_window_s
           : 0.0},
      {"peak_rss_mb", "MB", out.peak_rss_mb},
      {"design_latency_cycles", "cycles", out.design_latency_cycles},
      {"design_hw_area", "area", out.design_hw_area},
  };
  std::vector<Metric> per_layer;
  if (options.trace) {
    if (!out.traced_ms.empty() && !out.untraced_ms.empty()) {
      out.layer["obs.trace_overhead_pct"] =
          100.0 * (median(out.traced_ms) / median(out.untraced_ms) - 1.0);
    }
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = out.layer.find(m.name);
      per_layer.push_back({m.name, m.unit, it == out.layer.end() ? 0.0 : it->second});
    }
  }
  const bool correct = out.failed == 0 && out.attempted > 0 &&
                       !out.untraced_ms.empty() && !out.setup_s.empty();

  // The run's report, next to the Chrome trace of its traced ops.
  std::ostringstream report;
  report << "{\"workload\":" << json_string(options.workload)
         << ",\"seed\":" << options.seed
         << ",\"seconds\":" << format_number(options.seconds)
         << ",\"trace\":" << (options.trace ? "true" : "false")
         << ",\"host\":" << host_fingerprint_json()
         << ",\"end_to_end\":" << metrics_object(end_to_end)
         << ",\"op_samples\":" << tail.samples
         << ",\"op_tail_percentile\":" << tail.percentile
         << ",\"op_tail_beyond\":" << tail.beyond
         << ",\"traced_op_samples\":" << out.traced_ms.size()
         << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
         << ",\"error_rate\":"
         << format_number(out.attempted
                              ? static_cast<double>(out.failed) / out.attempted
                              : 0.0)
         << ",\"per_layer\":" << metrics_object(per_layer) << ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    report << (i ? "," : "") << json_string(out.problems[i]);
  }
  report << "]}";
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed) +
      (options.trace ? "-trace" : "");
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!obs::json_is_valid(report.str()) ||
      !write_file(std::filesystem::path(out_dir) / (stem + ".json"),
                  report.str())) {
    std::cerr << "perfbench: could not write the run report\n";
    return 1;
  }
  if (options.trace &&
      !write_file(std::filesystem::path(out_dir) / (stem + ".trace.json"),
                  out.trace.chrome_trace_json())) {
    std::cerr << "perfbench: could not write the Chrome trace\n";
    return 1;
  }

  std::cerr << "perfbench " << options.workload << " seed " << options.seed
            << ": " << out.attempted << " ops, " << out.failed << " failed, p"
            << tail.percentile << " over " << tail.samples << " samples\n";
  for (const std::string& p : out.problems) std::cerr << "  failure: " << p << "\n";
  std::cout << result_json(correct, out.attempted, out.failed,
                           options.trace ? per_layer : end_to_end)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
