// End-to-end trace -> statistics throughput: the text-parse path vs the
// zero-copy mmap binary (.tsvb) path, on a >= 1M-word trace. Both paths run
// the full pipeline a consumer would (open + parse/map + validate + chunked
// parallel statistics), and the results are checked bit-identical before any
// number is reported. Writes BENCH JSON to BENCH_trace_io.json (or --out).
//
//   trace_ingest [--words N] [--reps R] [--threads K] [--out PATH] [--dir D]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "stats/bitplane.hpp"
#include "stats/ingest.hpp"
#include "stats/switching_stats.hpp"
#include "streams/binary_trace.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_source.hpp"

using namespace tsvcod;

namespace {

bool identical(const stats::SwitchingStats& a, const stats::SwitchingStats& b) {
  if (a.width != b.width || a.transitions != b.transitions) return false;
  for (std::size_t i = 0; i < a.width; ++i) {
    if (a.self[i] != b.self[i] || a.prob_one[i] != b.prob_one[i]) return false;
    for (std::size_t j = 0; j < a.width; ++j) {
      if (a.coupling(i, j) != b.coupling(i, j)) return false;
    }
  }
  return true;
}

// Sticky-toggle traffic (same generator as stats_throughput): representative
// switching density, exercises every bit plane.
std::vector<std::uint64_t> make_trace(std::size_t width, std::size_t n) {
  const std::uint64_t mask = width < 64 ? (std::uint64_t{1} << width) - 1 : ~std::uint64_t{0};
  std::mt19937_64 rng(99);
  std::vector<std::uint64_t> words(n);
  std::uint64_t cur = rng();
  for (auto& w : words) {
    cur ^= rng() & rng();
    w = cur & mask;
  }
  return words;
}

template <typename Fn>
double best_words_per_sec(std::size_t words, int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) best = std::max(best, static_cast<double>(words) / secs);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 1u << 20;  // >= 1M words: the acceptance-criterion size
  int reps = 3;
  int threads = bench::env_threads();
  std::string out = "BENCH_trace_io.json";
  std::string dir = "/tmp";
  for (int i = 1; i < argc; ++i) {
    const auto next = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "trace_ingest: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--words")) {
      n = std::stoull(next("--words"));
    } else if (!std::strcmp(argv[i], "--reps")) {
      reps = std::stoi(next("--reps"));
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::stoi(next("--threads"));
    } else if (!std::strcmp(argv[i], "--out")) {
      out = next("--out");
    } else if (!std::strcmp(argv[i], "--dir")) {
      dir = next("--dir");
    } else {
      std::fprintf(stderr,
                   "usage: trace_ingest [--words N] [--reps R] [--threads K] [--out PATH] "
                   "[--dir D]\n");
      return 2;
    }
  }
  if (n < 2) n = 2;
  if (threads < 1) threads = 1;

  bench::print_header("Trace ingestion throughput",
                      "text parse+stats vs zero-copy mmap .tsvb ingestion, full pipeline");
  std::printf("%zu words, best of %d reps, stats at %d thread(s)\n\n", n, reps, threads);
  std::printf("%6s %14s %14s %14s %14s %8s %6s\n", "width", "text_parse", "text_e2e",
              "tsvb_open", "tsvb_e2e", "ratio", "ident");

  bench::BenchJson doc("trace_ingest");
  doc.param("words", static_cast<double>(n))
      .param("reps", reps)
      .param("threads", threads);
  bool all_identical = true;
  for (const std::size_t width : {std::size_t{32}, std::size_t{64}}) {
    const auto words = make_trace(width, n);
    const std::string tpath = dir + "/tsvcod_ingest_w" + std::to_string(width) + ".txt";
    const std::string bpath = dir + "/tsvcod_ingest_w" + std::to_string(width) + ".tsvb";
    streams::save_trace(tpath, words);
    streams::save_binary_trace(bpath, words, width);

    // Text pipeline: open + parse, then the same chunked parallel reduction.
    const double text_parse_wps =
        best_words_per_sec(n, reps, [&] { (void)streams::load_trace(tpath); });
    stats::SwitchingStats from_text;
    const double text_e2e_wps = best_words_per_sec(n, reps, [&] {
      const auto loaded = streams::load_trace(tpath);
      from_text = stats::compute_stats(loaded, width, threads);
    });

    // Binary pipeline: mmap + header/payload validation, then statistics
    // straight from the mapped pages (no intermediate vector).
    const double bin_open_wps =
        best_words_per_sec(n, reps, [&] { streams::MappedTrace map(bpath); });
    stats::SwitchingStats from_bin;
    const double bin_e2e_wps = best_words_per_sec(n, reps, [&] {
      const auto source = streams::open_word_source(bpath, width);
      from_bin = stats::compute_stats(*source, threads);
    });

    const bool ident = identical(from_text, from_bin);
    all_identical = all_identical && ident;
    const double ratio = text_e2e_wps > 0 ? bin_e2e_wps / text_e2e_wps : 0.0;
    std::printf("%6zu %14.3e %14.3e %14.3e %14.3e %7.1fx %6s\n", width, text_parse_wps,
                text_e2e_wps, bin_open_wps, bin_e2e_wps, ratio, ident ? "yes" : "NO");

    doc.begin_row()
        .field("width", static_cast<double>(width))
        .field("text_parse_words_per_sec", text_parse_wps)
        .field("text_e2e_words_per_sec", text_e2e_wps)
        .field("tsvb_open_words_per_sec", bin_open_wps)
        .field("tsvb_e2e_words_per_sec", bin_e2e_wps)
        .field("e2e_speedup", ratio)
        .field("bit_identical", ident);

    std::remove(tpath.c_str());
    std::remove(bpath.c_str());
  }

  doc.write(out);
  std::printf("\nBENCH {\"bench\": \"trace_ingest\", \"out\": \"%s\", \"bit_identical\": %s}\n",
              out.c_str(), all_identical ? "true" : "false");
  return all_identical ? 0 : 1;
}
