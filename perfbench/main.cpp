// tsvcod_perfbench: runs one end-to-end workload and prints its metrics.
//
//   tsvcod_perfbench --workload design-flow|serve-drift|noc-hotspot
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//                    [--git-describe TEXT]
//
// Output: a context line, one "name = value unit" line per metric, a result
// file <work-dir>/result-<workload>-<seed>-trace<0|1>.json with the context
// block, every metric and every failed check, and as the last line of
// stdout the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1). Exit code 0 only when every correctness check passed.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// The contract metric sets; every run reports all of its set. Layers a
/// workload does not exercise report 0 (see NOTES.md).
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"}, {"job_s", "s"}, {"throughput_per_s", "1/s"},
    {"saving_pct", "%"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"streams.parse_s", "s"},        {"streams.words_per_s", "1/s"},
    {"tsv.fit_s", "s"},              {"field.extract_s", "s"},
    {"field.iterations", "count"},   {"stats.compute_s", "s"},
    {"stats.fold_wps", "1/s"},       {"coding.encode_s", "s"},
    {"coding.roundtrip_s", "s"},     {"coding.roundtrip_wps", "1/s"},
    {"coding.noc_overhead_x", "x"},  {"core.optimize_s", "s"},
    {"core.evaluations", "count"},   {"core.evals_per_s", "1/s"},
    {"core.baseline_s", "s"},        {"core.reanneal_evaluations", "count"},
    {"circuit.simulate_s", "s"},     {"circuit.cycles", "count"},
    {"serve.ingest_blocked_s", "s"}, {"serve.max_queue_depth", "count"},
    {"serve.drain_s", "s"},          {"serve.generator_late_ms", "ms"},
    {"serve.trips", "count"},        {"serve.swaps", "count"},
    {"noc.plan_s", "s"},             {"noc.run_s", "s"},
    {"noc.ns_per_router_cycle", "ns"}, {"noc.stalled_cycles", "count"},
    {"noc.parallel_speedup", "x"},   {"obs.attributed_pct", "%"},
    {"obs.overhead_pct", "%"},
};

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return tsvcod::opt::hardware_threads();
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Report::Value>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(name) + ": {\"value\": " + number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "tsvcod_perfbench: %s\nusage: tsvcod_perfbench --workload "
               "design-flow|serve-drift|noc-hotspot --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--git-describe TEXT]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string git_describe = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else if (flag == "--git-describe") {
        git_describe = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage(flag + " expects a number, got '" + value + "'");
    }
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  o.nproc = usable_cpus();
  o.threads = std::min(o.threads_requested, o.nproc);

  const std::vector<std::pair<std::string, void (*)(const Options&, Report&)>> workloads = {
      {"design-flow", run_design_flow},
      {"serve-drift", run_serve_drift},
      {"noc-hotspot", run_noc_hotspot},
  };
  void (*run)(const Options&, Report&) = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (name == o.workload) run = fn;
  }
  if (!run) usage("unknown --workload '" + o.workload + "'");

  Report report;
  try {
    run(o, report);
  } catch (const std::exception& e) {
    report.failures.push_back(std::string("run aborted: ") + e.what());
  }
  if (report.attempted == 0) {  // aborted before its first op: count the run itself
    report.attempted = 1;
    report.failed = 1;
  }

  const int pool_workers = tsvcod::opt::ThreadPool::shared().workers();
  report.check(pool_workers <= o.nproc, "pool grew to " + std::to_string(pool_workers) +
                                            " workers on " + std::to_string(o.nproc) + " CPUs");

  // Fill the contract set: every metric present, unexercised layers at 0.
  auto& contract = o.trace ? report.layer : report.e2e;
  const auto& names = o.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : names) {
    if (!contract.count(name)) {
      if (!o.trace && report.failures.empty()) {
        report.failures.push_back(std::string("end-to-end metric missing: ") + name);
      }
      contract[name] = {0.0, unit};
    }
  }
  for (const auto& [name, m] : contract) {
    bool known = false;
    for (const auto& n : names) known = known || name == n.first;
    report.check(known, "metric outside the contract set: " + name);
  }

  const bool correct = report.failures.empty();
  const std::string context =
      "{\"workload\": " + quoted(o.workload) + ", \"seed\": " + std::to_string(o.seed) +
      ", \"trace\": " + (o.trace ? "true" : "false") + ", \"seconds\": " + number(o.seconds) +
      ", \"nproc\": " + std::to_string(o.nproc) +
      ", \"threads_requested\": " + std::to_string(o.threads_requested) +
      ", \"threads_used\": " + std::to_string(o.threads) +
      ", \"pool_workers\": " + std::to_string(pool_workers) +
      ", \"simd\": " + quoted(tsvcod::simd::level_name(tsvcod::simd::active_level())) +
      ", \"compiler\": " + quoted(compiler()) + ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"git_describe\": " + quoted(git_describe) + "}";

  std::printf("context %s\n", context.c_str());
  for (const auto* group : {&report.info, &contract}) {
    for (const auto& [name, m] : *group) {
      std::printf("%-28s = %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 0.0;
  std::printf("%-28s = %.6g (%llu of %llu ops)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& f : report.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string checks = "[";
  for (const auto& f : report.failures) checks += (checks.size() > 1 ? ", " : "") + quoted(f);
  checks += "]";
  const std::string result_path = o.work_dir + "/result-" + o.workload + "-" +
                                  std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0") +
                                  ".json";
  std::ofstream(result_path) << "{\"context\": " << context << ",\n \"correct\": "
                             << (correct ? "true" : "false")
                             << ", \"attempted\": " << report.attempted
                             << ", \"failed\": " << report.failed
                             << ", \"failed_frac\": " << number(failed_frac)
                             << ",\n \"failed_checks\": " << checks
                             << ",\n \"end_to_end\": " << metrics_json(report.e2e)
                             << ",\n \"per_layer\": " << metrics_json(report.layer)
                             << ",\n \"info\": " << metrics_json(report.info) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics_json(contract).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
