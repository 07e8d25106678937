// Circuit sign-off throughput: the TransientSim step loop
// (simulate_link_stepwise, steps_per_cycle LU solves per cycle) vs the
// one-cycle propagator behind simulate_link (one matrix-vector product per
// cycle after a per-netlist precompute, which the timing includes). Both run
// the design flow's sign-off shape (3 GHz, 40 steps per cycle, 3-pi RLC) on
// random line words at 2x2, 4x4 and 6x6. The energies must agree to 1e-9
// relative; `energies_match` gates that.
// Writes the BENCH JSON to BENCH_circuit.json (or --out PATH).
//
//   circuit_propagator [--cycles N] [--reps R] [--out PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "circuit/tsv_link_sim.hpp"
#include "common.hpp"
#include "tsv/analytic_model.hpp"

using namespace tsvcod;

namespace {

/// Best cycles/s of `reps` runs of `sim`; `energy` receives the last result.
template <typename Sim>
double best_cycles_per_sec(std::size_t cycles, int reps, double& energy, Sim&& sim) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    energy = sim().dynamic_energy;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) best = std::max(best, static_cast<double>(cycles) / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 1000;
  int reps = 3;
  std::string out = "BENCH_circuit.json";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "circuit_propagator: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--cycles")) {
      cycles = std::stoull(next("--cycles"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      reps = std::stoi(next("--reps"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else {
      std::fprintf(stderr, "usage: circuit_propagator [--cycles N] [--reps R] [--out PATH]\n");
      return 2;
    }
  }
  cycles = std::max<std::size_t>(cycles, 2);
  reps = std::max(reps, 1);
  const circuit::SimOptions options;  // 3 GHz, 40 steps per cycle, 3-pi RLC

  bench::print_header("Circuit sign-off: step loop vs one-cycle propagator",
                      "Sec. 7 circuit-level power; energies must agree to 1e-9 relative");
  std::printf("%zu cycles, %d steps per cycle, best of %d reps\n\n", cycles,
              options.steps_per_cycle, reps);
  std::printf("%6s %18s %18s %10s %12s %6s\n", "array", "step_cycles/s", "prop_cycles/s",
              "speedup", "rel_diff", "match");

  struct Shape {
    std::size_t rows, cols;
  };
  const Shape shapes[] = {{2, 2}, {4, 4}, {6, 6}};

  bench::BenchJson doc("circuit_propagator");
  doc.param("cycles", static_cast<double>(cycles))
      .param("steps_per_cycle", options.steps_per_cycle)
      .param("reps", reps);
  double max_rel = 0.0;
  bool all_match = true;
  for (const Shape& sh : shapes) {
    const auto geom = phys::TsvArrayGeometry::itrs2018_min(sh.rows, sh.cols);
    const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.5));
    std::mt19937_64 rng(sh.rows * 16 + sh.cols);
    std::vector<std::uint64_t> words(cycles);
    for (auto& w : words) w = rng() & ((std::uint64_t{1} << geom.count()) - 1);

    double e_step = 0.0, e_prop = 0.0;
    const double step_cps = best_cycles_per_sec(cycles, reps, e_step, [&] {
      return circuit::simulate_link_stepwise(geom, cap, words, {}, options);
    });
    const double prop_cps = best_cycles_per_sec(cycles, reps, e_prop, [&] {
      return circuit::simulate_link(geom, cap, words, {}, options);
    });
    const double rel = std::abs(e_prop - e_step) / std::abs(e_step);
    const bool match = rel <= 1e-9;
    max_rel = std::max(max_rel, rel);
    all_match = all_match && match;

    const std::string name = std::to_string(sh.rows) + "x" + std::to_string(sh.cols);
    std::printf("%6s %18.4g %18.4g %9.1fx %12.3g %6s\n", name.c_str(), step_cps, prop_cps,
                prop_cps / step_cps, rel, match ? "yes" : "NO");
    doc.begin_row()
        .field("name", name)
        .field("step_cycles_per_sec", step_cps)
        .field("propagator_cycles_per_sec", prop_cps)
        .field("speedup", prop_cps / step_cps)
        .field("energies_match", match);
  }
  doc.param("max_rel_energy_diff", max_rel);
  doc.write(out);
  std::printf("\nmax relative energy difference %.3g -> %s\n", max_rel, out.c_str());
  return all_match ? 0 : 1;
}
