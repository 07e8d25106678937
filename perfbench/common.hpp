#pragma once
// Shared plumbing of the end-to-end benchmark: run options, timing, order
// statistics, the result record every workload fills, and the span-tree
// profile queries the traced runs use for per-layer attribution.
//
// Layer spans: each call the benchmark makes into a library layer is wrapped
// in an obs::Span named "<layer>::<call>" (streams::parse_trace,
// core::optimize_assignment, ...). The "::" keeps them apart from the
// program's own dot-named spans (stats.compute, opt.chain, field.extract,
// noc.run), which nest under them. In untraced runs profiling is off and the
// spans are inert.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename Fn>
double timed_seconds(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the timed part
  bool trace = false;     ///< per-layer (profiled) run instead of end-to-end
  int nproc = 1;          ///< CPUs this process may run on
  int threads_requested = 4;  ///< the workloads' design point
  int threads = 4;            ///< threads_requested clamped to nproc
  std::string work_dir;   ///< scratch directory for generated inputs
};

/// Median of the values (mean of the middle two for an even count).
double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Keep `threads` threads busy for a while before anything is timed: a
/// virtual CPU that has been idle runs its first fraction of a second at a
/// fraction of its speed, which would otherwise land in the set-up time.
void warm_up(int threads);

/// Everything one run reports. `e2e` and `layer` hold the contract metrics
/// (end-to-end and per-layer); `info` holds further named figures that are
/// printed and stored with the result but not compared between runs.
struct Report {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> e2e;
  std::map<std::string, Value> layer;
  std::map<std::string, Value> info;
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Aggregated span-tree profile (obs::profile_to_json(full)) with lookups by
/// span name anywhere in the tree.
class Profile {
 public:
  /// Snapshot the live profile.
  static Profile capture();

  /// Sum of total time [s] over every node named `name`.
  double total_s(std::string_view name) const;
  /// Sum of call counts over every node named `name`.
  std::uint64_t count(std::string_view name) const;

 private:
  tsvcod::obs::json::Value doc_;
};

}  // namespace perfbench
