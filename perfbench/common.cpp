#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/profile.hpp"
#include "opt/parallel.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(k, values.size() - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void warm_up(int threads) {
  constexpr double kSeconds = 2.0;
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kSeconds));
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  tsvcod::opt::parallel_for(sink.size(), threads, [&](std::size_t i) {
    std::uint64_t x = i + 1;
    while (Clock::now() < until) {
      for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink[i] = x;
  });
}

Profile Profile::capture() {
  Profile p;
  p.doc_ = tsvcod::obs::json::parse(tsvcod::obs::profile_to_json(tsvcod::obs::ProfileFields::full));
  return p;
}

namespace {

void visit(const tsvcod::obs::json::Value& node,
           const std::function<void(const tsvcod::obs::json::Value&)>& fn) {
  fn(node);
  if (const auto* children = node.find("children")) {
    for (const auto& child : children->array) visit(child, fn);
  }
}

double sum_field(const tsvcod::obs::json::Value& doc, std::string_view name,
                 std::string_view field) {
  double sum = 0.0;
  if (const auto* roots = doc.find("roots")) {
    for (const auto& root : roots->array) {
      visit(root, [&](const tsvcod::obs::json::Value& node) {
        const auto* n = node.find("name");
        if (n && n->string == name) sum += node.find(field)->number;
      });
    }
  }
  return sum;
}

}  // namespace

double Profile::total_s(std::string_view name) const {
  return sum_field(doc_, name, "total_ns") * 1e-9;
}

std::uint64_t Profile::count(std::string_view name) const {
  return static_cast<std::uint64_t>(sum_field(doc_, name, "count"));
}

}  // namespace perfbench
