// Annealing move-pricing throughput: the pre-batching pricing scheme (apply
// the move, read power(), apply again to undo — two O(N) incremental updates
// per candidate, scalar dispatch) vs the batched score_moves API at scalar
// and at the best SIMD level the host supports. Also gates correctness: a
// sample of scores must match the dense assignment_power of the move applied
// on its own, and the SIMD speedup must clear the PR's acceptance bar
// (>= 2x at w = 32, >= 3x at w = 64 over the apply/undo scalar baseline).
// Writes the BENCH JSON to BENCH_evaluator.json (or --out PATH).
//
//   evaluator_throughput [--moves N] [--reps R] [--out PATH]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "core/link.hpp"
#include "simd/dispatch.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

stats::SwitchingStats make_stats(std::size_t width) {
  streams::SequentialStream src(width, 0.05, 3);
  return stats::compute_stats(streams::collect(src, 20000), width, 1);
}

std::vector<core::PowerEvaluator::Move> make_moves(std::size_t width, std::size_t count) {
  std::mt19937_64 rng(41);
  std::uniform_int_distribution<std::size_t> pick(0, width - 1);
  std::vector<core::PowerEvaluator::Move> moves(count);
  for (auto& m : moves) {
    if (rng() % 3 == 0) {
      m = {true, pick(rng), 0};
    } else {
      std::size_t a = pick(rng);
      std::size_t b = pick(rng);
      while (b == a) b = pick(rng);
      m = {false, a, b};
    }
  }
  return moves;
}

template <typename Fn>
double best_moves_per_sec(std::size_t moves, int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) best = std::max(best, static_cast<double>(moves) / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_moves = 1u << 17;
  int reps = 5;
  std::string out = "BENCH_evaluator.json";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "evaluator_throughput: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--moves")) {
      n_moves = std::stoull(next("--moves"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      reps = std::stoi(next("--reps"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else {
      std::fprintf(stderr, "usage: evaluator_throughput [--moves N] [--reps R] [--out PATH]\n");
      return 2;
    }
  }
  if (n_moves < 256) n_moves = 256;
  constexpr std::size_t kBlock = 16;  // annealer-representative batch size

  bench::print_header("Evaluator move-pricing throughput",
                      "SA candidate cost: apply/undo scalar updates vs batched SIMD row kernels");
  std::printf("%zu candidate moves, blocks of %zu, best of %d reps, simd level %s\n\n", n_moves,
              kBlock, reps, simd::level_name(simd::active_level()));
  std::printf("%6s %16s %16s %16s %10s %10s %6s\n", "width", "apply_m/s", "batch_scalar_m/s",
              "batch_simd_m/s", "b_spd", "simd_spd", "ok");

  struct Shape {
    std::size_t rows, cols;
  };
  const Shape shapes[] = {{2, 4}, {4, 4}, {4, 8}, {8, 8}};

  bench::BenchJson doc("evaluator_throughput");
  doc.param("moves", static_cast<double>(n_moves))
      .param("reps", reps)
      .param("block", static_cast<double>(kBlock))
      .param("simd_level", std::string(simd::level_name(simd::active_level())));
  bool all_ok = true;
  for (const auto& sh : shapes) {
    const std::size_t width = sh.rows * sh.cols;
    const auto geom = phys::TsvArrayGeometry::itrs2018_min(sh.rows, sh.cols);
    const auto model = tsv::fit_from_analytic(geom);
    const auto st = make_stats(width);
    const auto moves = make_moves(width, n_moves);

    core::PowerEvaluator ev(st, model, core::SignedPermutation::identity(width));
    // Scramble away from the identity so line state differs from bit state.
    for (std::size_t i = 0; i + 1 < width; i += 2) ev.swap_bits(i, width - 1 - i);

    // Correctness gate (tolerance: the evaluator_drift oracle's mass bound).
    double mass = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      for (std::size_t j = 0; j < width; ++j) {
        mass += std::abs(model.c_ref()(i, j)) + std::abs(model.delta_c()(i, j));
      }
    }
    const double tol = 1e-9 * mass;
    bool ok = true;
    {
      std::vector<double> scores(256);
      ev.score_moves(std::span(moves.data(), 256), scores);
      for (std::size_t k = 0; k < 256 && ok; ++k) {
        core::SignedPermutation a = ev.assignment();
        if (moves[k].is_toggle) {
          a.toggle_inversion(moves[k].a);
        } else {
          a.swap_bits(moves[k].a, moves[k].b);
        }
        ok = std::abs(scores[k] - core::assignment_power(st, a, model)) <= tol;
      }
    }

    double sink = 0.0;
    // Pre-batching pricing: one apply + one undo per candidate, scalar level.
    const double apply_mps = best_moves_per_sec(n_moves, reps, [&] {
      simd::ScopedLevel guard(simd::Level::scalar);
      for (const auto& m : moves) {
        sink += m.is_toggle ? ev.toggle_inversion(m.a) : ev.swap_bits(m.a, m.b);
        if (m.is_toggle) {
          ev.toggle_inversion(m.a);
        } else {
          ev.swap_bits(m.a, m.b);
        }
      }
    });

    std::vector<double> scores(kBlock);
    const auto price_batched = [&] {
      for (std::size_t base = 0; base + kBlock <= moves.size(); base += kBlock) {
        ev.score_moves(std::span(moves.data() + base, kBlock), scores);
        sink += scores[0];
      }
    };
    const double batch_scalar_mps = best_moves_per_sec(n_moves, reps, [&] {
      simd::ScopedLevel guard(simd::Level::scalar);
      price_batched();
    });
    const double batch_simd_mps = best_moves_per_sec(n_moves, reps, price_batched);

    const double batch_spd = apply_mps > 0 ? batch_scalar_mps / apply_mps : 0.0;
    const double simd_spd = apply_mps > 0 ? batch_simd_mps / apply_mps : 0.0;
    // Acceptance bar: >= 2x at w = 32, >= 3x at w = 64.
    if (width == 32 && simd_spd < 2.0) ok = false;
    if (width == 64 && simd_spd < 3.0) ok = false;
    all_ok = all_ok && ok;

    std::printf("%6zu %16.3e %16.3e %16.3e %9.1fx %9.1fx %6s\n", width, apply_mps,
                batch_scalar_mps, batch_simd_mps, batch_spd, simd_spd, ok ? "yes" : "NO");

    doc.begin_row()
        .field("width", static_cast<double>(width))
        .field("apply_moves_per_sec", apply_mps)
        .field("batch_scalar_moves_per_sec", batch_scalar_mps)
        .field("batch_simd_moves_per_sec", batch_simd_mps)
        .field("speedup_batch", batch_spd)
        .field("speedup_simd", simd_spd)
        .field("ok", ok);
    if (sink == 0.12345) std::printf("(unreachable %f)\n", sink);  // keep the work alive
  }

  doc.write(out);
  std::printf("\nBENCH {\"bench\": \"evaluator_throughput\", \"out\": \"%s\", \"ok\": %s}\n",
              out.c_str(), all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}
