// tsvcod_cli — command-line front end for the design flow.
//
// Subcommands:
//   extract   fit a capacitance model for an array (analytic or field solver)
//             and write it to a file for later runs.
//   optimize  find the power-optimal signed permutation for a word trace.
//   evaluate  price a stored assignment against a trace.
//   mappings  print the systematic Spiral/Sawtooth layouts for an array.
//   overhead  run the Sec. 3 routing-overhead study for an array.
//   convert   convert a word trace between the text format and the .tsvb
//             zero-copy binary format.
//
// Trace inputs (--trace) are format-sniffed: a .tsvb magic selects the
// memory-mapped zero-copy reader, anything else the hardened text parser.
//
// Examples:
//   tsvcod_cli extract --rows 4 --cols 4 --radius-um 2 --pitch-um 8 --out m.txt
//   tsvcod_cli optimize --model m.txt --trace bus.txt --no-invert 14,15
//       --out assignment.txt
//   tsvcod_cli evaluate --model m.txt --trace bus.txt --assignment assignment.txt
//   tsvcod_cli convert --trace bus.txt --width 16 --out bus.tsvb

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "coding/factory.hpp"
#include "core/assignment_io.hpp"
#include "core/link.hpp"
#include "field/export.hpp"
#include "field/extractor.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "opt/parallel.hpp"
#include "simd/dispatch.hpp"
#include "stats/ingest.hpp"
#include "streams/binary_trace.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_source.hpp"
#include "tsv/model_io.hpp"
#include "tsv/routing.hpp"

using namespace tsvcod;

namespace {

using tools::Args;
using tools::geometry_from;
using tools::model_from;
using tools::threads_from;

/// --codec and its sub-flags, when given. Width validation happens inside the
/// factory, so a payload too wide for the named codec fails with a message
/// naming the codec and its actual limit.
std::optional<coding::CodecSpec> codec_from(const Args& args) {
  if (!args.has("codec")) return std::nullopt;
  coding::CodecSpec spec;
  spec.name = args.str("codec");
  spec.period = args.size_or("codec-period", 1);
  spec.stride = args.size_or("codec-stride", 1);
  spec.lambda = args.number_or("codec-lambda", 2.0);
  return spec;
}

/// The --codec encoder, sized so its output occupies the array exactly; null
/// without --codec.
std::unique_ptr<coding::Codec> line_codec_from(const Args& args, const core::Link& link) {
  const auto spec = codec_from(args);
  if (!spec) return nullptr;
  auto codec = coding::make_codec_for_lines(*spec, link.width());
  std::printf("codec                    : %s (%zu payload bits -> %zu lines)\n",
              spec->name.c_str(), codec->width_in(), codec->width_out());
  return codec;
}

/// Open --trace at the width of the words it carries: the array width, or the
/// codec's payload width with a codec, so the width rules of
/// open_word_source apply to the payload.
std::unique_ptr<streams::WordSource> open_trace(const Args& args, const core::Link& link,
                                                const coding::Codec* codec) {
  auto source = streams::open_word_source(args.str("trace"),
                                          codec ? codec->width_in() : link.width());
  if (source->size() < 2) throw std::runtime_error("trace too short");
  return source;
}

/// Statistics of the trace as seen on the TSV lines: the payload itself
/// without a codec (zero-copy for an mmap'd binary trace), else the payload
/// pushed through the encoder in one block.
stats::SwitchingStats line_stats_from(const streams::WordSource& source, coding::Codec* codec,
                                      int threads) {
  if (!codec) return stats::compute_stats(source, threads);
  std::vector<std::uint64_t> coded(source.size());
  codec->encode_block(source.words(), coded);
  return stats::compute_stats(coded, codec->width_out(), threads);
}

field::Preconditioner preconditioner_from(const Args& args) {
  const std::string name = args.str_or("preconditioner", "");
  if (name.empty()) return field::default_preconditioner();
  if (name == "jacobi") return field::Preconditioner::jacobi;
  if (name == "multigrid" || name == "mg") return field::Preconditioner::multigrid;
  throw std::runtime_error("unknown --preconditioner (use jacobi|multigrid)");
}

int cmd_extract(const Args& args) {
  const auto geom = geometry_from(args);
  tsv::LinearCapacitanceModel model;
  const std::string backend = args.str_or("backend", "analytic");
  if (backend == "field") {
    field::ExtractionOptions fo;
    fo.cell = args.number_or("cell-um", 0.125) * 1e-6;
    fo.threads = threads_from(args);
    fo.solver.preconditioner = preconditioner_from(args);
    std::printf("running field extraction (%zux%zu, cell %.3f um, %s preconditioner)...\n",
                geom.rows, geom.cols, fo.cell * 1e6,
                fo.solver.preconditioner == field::Preconditioner::multigrid ? "multigrid"
                                                                            : "jacobi");
    tsv::FieldFitStats fit_stats;
    model = tsv::fit_from_field(geom, fo, &fit_stats);
    std::printf("field solves             : %zu (%lld iterations, %s preconditioner",
                fit_stats.solves, fit_stats.iterations,
                fit_stats.preconditioner == field::Preconditioner::multigrid ? "multigrid"
                                                                            : "jacobi");
    if (fit_stats.trivial > 0) std::printf(", %zu trivial", fit_stats.trivial);
    if (fit_stats.nonconverged > 0) std::printf(", %zu NOT converged", fit_stats.nonconverged);
    std::printf(")\n");
  } else if (backend == "analytic") {
    model = tsv::fit_from_analytic(geom);
  } else {
    throw std::runtime_error("unknown --backend (use analytic|field)");
  }
  const std::string out = args.str("out");
  tsv::save_linear_model(out, model);
  std::printf("model written to %s (n = %zu)\n", out.c_str(), model.size());
  std::printf("C_R(0,0) = %.2f fF, C_R(0,1) = %.2f fF, DC(0,1) = %.2f fF\n",
              model.c_ref()(0, 0) * 1e15, model.c_ref()(0, 1) * 1e15,
              model.delta_c()(0, 1) * 1e15);
  return 0;
}

int cmd_optimize(const Args& args) {
  const auto geom = geometry_from(args);
  const core::Link link(geom, model_from(args));
  const auto codec = line_codec_from(args, link);
  const auto source = open_trace(args, link, codec.get());
  const int threads = threads_from(args);
  const auto st = line_stats_from(*source, codec.get(), threads);

  core::OptimizeOptions opts;
  opts.seed = static_cast<unsigned>(args.size_or("seed", 1));
  opts.schedule.iterations = static_cast<int>(args.size_or("iterations", 20000));
  opts.threads = threads;
  const auto frozen = args.index_list_or("no-invert");
  if (!frozen.empty()) {
    opts.allow_invert.assign(link.width(), 1);
    for (const auto bit : frozen) {
      if (bit >= link.width()) throw std::runtime_error("--no-invert bit out of range");
      opts.allow_invert[bit] = 0;
    }
  }

  const auto best = core::optimize_assignment(st, link.model(), opts);
  const auto base = core::random_assignment_power(st, link.model(), 200, 99, opts.threads);
  const auto spiral = core::spiral_assignment(geom, st);
  const auto sawtooth = core::sawtooth_assignment(geom, st);

  std::printf("trace words              : %zu\n", static_cast<std::size_t>(source->size()));
  std::printf("random assignment (mean) : %10.1f aF\n", base.mean * 1e18);
  std::printf("Spiral                   : %10.1f aF  (-%.1f %%)\n",
              link.power(st, spiral) * 1e18,
              core::reduction_pct(base.mean, link.power(st, spiral)));
  std::printf("Sawtooth                 : %10.1f aF  (-%.1f %%)\n",
              link.power(st, sawtooth) * 1e18,
              core::reduction_pct(base.mean, link.power(st, sawtooth)));
  std::printf("optimal                  : %10.1f aF  (-%.1f %%)\n", best.power * 1e18,
              core::reduction_pct(base.mean, best.power));
  std::printf("\n%s", core::format_assignment_grid(geom, best.assignment).c_str());

  if (args.has("out")) {
    core::save_assignment(args.str("out"), best.assignment);
    std::printf("assignment written to %s\n", args.str("out").c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto geom = geometry_from(args);
  const core::Link link(geom, model_from(args));
  const auto codec = line_codec_from(args, link);
  const auto source = open_trace(args, link, codec.get());
  const auto st = line_stats_from(*source, codec.get(), threads_from(args));
  const auto a = core::load_assignment(args.str("assignment"));
  const auto base = core::random_assignment_power(st, link.model());
  const double p = link.power(st, a);
  std::printf("assignment power         : %10.1f aF\n", p * 1e18);
  std::printf("random assignment (mean) : %10.1f aF\n", base.mean * 1e18);
  std::printf("reduction                : %.1f %%\n", core::reduction_pct(base.mean, p));

  if (const auto spec = codec_from(args)) {
    // Correctness half of the claim: every payload word must survive the
    // full encode -> assign -> lines -> unassign -> decode chain.
    const auto words = source->words();
    std::vector<std::uint64_t> received(words.size());
    link.coded(*spec, a).roundtrip_block(words, received);
    const auto bad = std::mismatch(words.begin(), words.end(), received.begin()).first;
    if (bad != words.end()) {
      throw std::runtime_error("coded round-trip FAILED at word " +
                               std::to_string(bad - words.begin()));
    }
    std::printf("coded round-trip         : OK (%zu words through %s)\n", words.size(),
                spec->name.c_str());
  }
  return 0;
}

int cmd_mappings(const Args& args) {
  const auto geom = geometry_from(args);
  const auto show = [&](const char* name, const std::vector<std::size_t>& order) {
    // Render visit ranks in array shape.
    std::vector<std::size_t> rank(geom.count());
    for (std::size_t k = 0; k < order.size(); ++k) rank[order[k]] = k;
    std::printf("%s order (visit rank per TSV):\n", name);
    for (std::size_t r = 0; r < geom.rows; ++r) {
      for (std::size_t c = 0; c < geom.cols; ++c) std::printf(" %3zu", rank[geom.index(r, c)]);
      std::printf("\n");
    }
  };
  show("Spiral", core::spiral_order(geom));
  show("Sawtooth", core::sawtooth_order(geom));
  return 0;
}

int cmd_fieldmap(const Args& args) {
  const auto geom = geometry_from(args);
  const std::vector<double> pr(geom.count(), args.number_or("probability", 0.5));
  field::ExtractionOptions fo;
  fo.cell = args.number_or("cell-um", 0.1) * 1e-6;
  fo.solver.preconditioner = preconditioner_from(args);
  const auto grid = field::build_array_grid(geom, pr, fo);
  const std::string prefix = args.str("out");

  field::write_pgm(prefix + "_geometry.pgm", grid.nx(), grid.ny(),
                   field::permittivity_map(grid));
  const field::FieldProblem problem(grid);
  field::SolveStats stats;
  const auto phi = problem.solve(0, fo.solver, &stats);
  field::write_pgm(prefix + "_phi0.pgm", grid.nx(), grid.ny(),
                   field::potential_map(grid, phi));
  std::printf("wrote %s_geometry.pgm and %s_phi0.pgm (%zux%zu, solve %s in %d iters)\n",
              prefix.c_str(), prefix.c_str(), grid.nx(), grid.ny(),
              stats.converged ? "converged" : "NOT converged", stats.iterations);
  return stats.converged ? 0 : 1;
}

int cmd_convert(const Args& args) {
  const std::string in = args.str("trace");
  const std::string out = args.str("out");
  const bool in_binary = streams::file_looks_like_binary_trace(in);
  const std::string to = args.str_or("to", in_binary ? "text" : "binary");
  if (to != "text" && to != "binary") throw std::runtime_error("unknown --to (use text|binary)");

  // Format sniffing + width rules live in open_word_source: a text input goes
  // through the hardened parser, a binary input through the mmap reader.
  const auto source = streams::open_word_source(in, args.size_or("width", 0));
  if (to == "text") {
    streams::save_trace(out, source->words());
    std::printf("wrote %zu words (width %zu) to %s (text)\n",
                static_cast<std::size_t>(source->size()), source->width(), out.c_str());
    return 0;
  }

  // Provenance seed: keep a binary input's, unless overridden.
  const std::uint64_t seed = args.has("seed") ? args.size("seed") : source->seed();
  streams::BinaryTraceWriter writer(out, source->width(), seed);
  writer.write(source->words());
  writer.close();
  std::printf("wrote %llu words (width %zu, seed %llu) to %s (.tsvb binary)\n",
              static_cast<unsigned long long>(writer.written()), source->width(),
              static_cast<unsigned long long>(seed), out.c_str());
  return 0;
}

int cmd_overhead(const Args& args) {
  const auto geom = geometry_from(args);
  const std::vector<double> pr(geom.count(), 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  std::vector<double> totals(geom.count(), 0.0);
  for (std::size_t i = 0; i < geom.count(); ++i) {
    for (std::size_t j = 0; j < geom.count(); ++j) totals[i] += cap(i, j);
  }
  const auto stats = tsv::routing_overhead_stats(geom, totals);
  std::printf("assignments : %zu (%s)\n", stats.assignments,
              stats.exhaustive ? "exhaustive" : "sampled");
  std::printf("worst  : %.3f %%\nmean   : %.3f %%\nstddev : %.3f %%\n", stats.worst_pct,
              stats.mean_pct, stats.stddev_pct);
  return 0;
}

void usage() {
  std::printf(
      "usage: tsvcod_cli <extract|optimize|evaluate|mappings|overhead|fieldmap|convert>"
      " [--flags]\n"
      "common flags : --rows N --cols N --radius-um R --pitch-um D [--length-um L]\n"
      "               [--threads N]  (N=0: all hardware threads, same as\n"
      "                TSVCOD_THREADS=0; unset: TSVCOD_THREADS env, else serial;\n"
      "                results are identical at every thread count)\n"
      "               [--preconditioner jacobi|multigrid]  (field solves; default\n"
      "                multigrid, or the TSVCOD_PRECONDITIONER env override)\n"
      "               [--simd scalar|popcnt|avx2|avx512]  clamp the SIMD dispatch\n"
      "                level (wins over the TSVCOD_SIMD env; never raises above\n"
      "                what the CPU supports; results are level-invariant)\n"
      "               [--verbose]  report the resolved SIMD level, thread count and\n"
      "                active observability sinks\n"
      "               [--trace-out FILE]    write a Chrome/Perfetto trace of the run\n"
      "               [--metrics-out FILE]  write the metrics registry as JSON\n"
      "               [--profile-out FILE]  write the span-tree profile as JSON plus\n"
      "                FILE.folded collapsed stacks for flamegraph tools\n"
      "               [--snapshot-out FILE [--snapshot-interval SECONDS]]  export the\n"
      "                metrics registry periodically (rotating FILE.1..FILE.3)\n"
      "                (TSVCOD_TRACE / TSVCOD_METRICS / TSVCOD_PROFILE /\n"
      "                 TSVCOD_SNAPSHOT(+_INTERVAL) env set the same outputs;\n"
      "                 outputs are flushed even when a run fails, marked\n"
      "                 \"clean_exit\":false)\n"
      "               [--codec NAME]  push the trace through a low-power codec first\n"
      "                (gray|correlator|bus-invert|coupling-invert|t0|fibonacci;\n"
      "                 sub-flags --codec-period N --codec-stride N --codec-lambda X;\n"
      "                 the codec is sized so its output fills the array exactly)\n"
      "extract      : [--backend analytic|field] [--cell-um C] --out FILE\n"
      "optimize     : [--model FILE] --trace FILE [--no-invert i,j] [--iterations N]\n"
      "               [--seed S] [--codec NAME] [--out FILE]\n"
      "evaluate     : [--model FILE] --trace FILE --assignment FILE [--codec NAME]\n"
      "               (with --codec also verifies the encode->assign->decode chain)\n"
      "fieldmap     : [--probability P] [--cell-um C] --out PREFIX\n"
      "convert      : --trace FILE --out FILE [--to text|binary] [--width W] [--seed S]\n"
      "               (default --to: the opposite of the sniffed input format;\n"
      "                .tsvb is the zero-copy mmap format — see README 'Trace formats')\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (args.help()) {
      usage();
      return 0;
    }
    // Fail fast on a malformed TSVCOD_THREADS (clear error up front instead
    // of a surprise at the first parallel section).
    (void)opt::default_threads();
    // SIMD level: the --simd flag wins over the TSVCOD_SIMD env clamp; both
    // only ever lower the detected level. Evaluating active_level() here
    // fails fast on a malformed env value too.
    if (args.has("simd")) simd::force_level(simd::parse_level(args.str("simd")));
    (void)simd::active_level();
    // Observability: env first, explicit flags override. From here on,
    // every exit path — including thrown errors — flushes the configured
    // sinks; the success path calls finish() for a clean flush.
    obs::SinkGuard sinks(args.sink_flags());

    if (args.has("verbose")) {
      const simd::Level active = simd::active_level();
      const simd::Level detected = simd::detected_level();
      std::printf("simd level   : %s (detected %s%s)\n", simd::level_name(active),
                  simd::level_name(detected),
                  active == detected ? ""
                  : args.has("simd") ? ", clamped by --simd"
                                     : ", clamped by TSVCOD_SIMD");
      std::printf("threads      : %d\n", std::max(1, opt::resolve_threads(threads_from(args))));
      const auto sink = [](const std::string& path) {
        return path.empty() ? std::string("off") : path;
      };
      std::printf("obs sinks    : trace=%s metrics=%s profile=%s snapshot=%s\n",
                  sink(obs::trace_path()).c_str(), sink(obs::metrics_path()).c_str(),
                  sink(obs::profile_path()).c_str(), sink(obs::snapshot_path()).c_str());
    }

    int rc = 2;
    if (cmd == "extract") rc = cmd_extract(args);
    else if (cmd == "optimize") rc = cmd_optimize(args);
    else if (cmd == "evaluate") rc = cmd_evaluate(args);
    else if (cmd == "mappings") rc = cmd_mappings(args);
    else if (cmd == "overhead") rc = cmd_overhead(args);
    else if (cmd == "fieldmap") rc = cmd_fieldmap(args);
    else if (cmd == "convert") rc = cmd_convert(args);
    else {
      usage();
      return 2;
    }

    if (sinks.finish()) {
      if (!obs::trace_path().empty()) {
        std::printf("trace written to %s (load in Perfetto / chrome://tracing)\n",
                    obs::trace_path().c_str());
      }
      if (!obs::metrics_path().empty()) {
        std::printf("metrics written to %s\n", obs::metrics_path().c_str());
      }
      if (!obs::profile_path().empty()) {
        std::printf("profile written to %s (+ %s.folded for flamegraph tools)\n",
                    obs::profile_path().c_str(), obs::profile_path().c_str());
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
