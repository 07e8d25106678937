// design-flow: the paper's designer flow on a 4x4 TSV array.
//
//   set-up : field-solver capacitance fit (tsv::fit_from_field)
//   flow   : open the text trace -> correlator encode -> compute_stats ->
//            optimize_assignment + random/Spiral/Sawtooth baselines ->
//            CodedLink round-trip of every word -> circuit::simulate_link
//            sign-off of identity vs optimal on a window of cycles
//
// flow_s runs from opening the trace to the verified, signed-off assignment.
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/tsv_link_sim.hpp"
#include "coding/factory.hpp"
#include "core/link.hpp"
#include "core/mappings.hpp"
#include "core/optimize.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "stats/switching_stats.hpp"
#include "streams/random_streams.hpp"
#include "streams/trace_io.hpp"
#include "streams/word_source.hpp"
#include "tsv/linear_model.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tsvcod;

namespace {

constexpr std::size_t kRows = 4;
constexpr std::size_t kCols = 4;
constexpr std::size_t kWidth = kRows * kCols;
constexpr std::size_t kTraceWords = 6'000'000;
constexpr std::size_t kSignoffCycles = 1000;  ///< circuit-simulated window
constexpr int kSetupReps = 3;
constexpr int kMinFlows = 2;
constexpr int kBaselineSamples = 200;
constexpr int kAnnealIterations = 20000;

const coding::CodecSpec kCodec{.name = "correlator"};

struct FlowOutcome {
  double flow_s = 0.0;
  double reduction_pct = 0.0;
  double circuit_reduction_pct = 0.0;
  std::uint64_t words = 0;
  std::uint64_t failed_words = 0;
  std::size_t evaluations = 0;
  core::SignedPermutation assignment{1};
  stats::SwitchingStats line_stats;  ///< statistics of the coded trace
};

core::OptimizeOptions anneal_options(std::uint64_t seed, int threads) {
  core::OptimizeOptions o;
  o.schedule.iterations = kAnnealIterations;
  o.seed = static_cast<unsigned>(seed);
  o.threads = threads;
  return o;
}

double signoff_power(const core::Link& link, const stats::SwitchingStats& st,
                     const core::SignedPermutation& a, std::span<const std::uint64_t> coded) {
  const phys::Matrix cap = link.model().evaluate_eps(a.apply(st).eps());
  std::vector<std::uint64_t> lines;
  lines.reserve(coded.size());
  for (const std::uint64_t w : coded) lines.push_back(a.apply_word(w));
  return circuit::simulate_link(link.geometry(), cap, lines).total_power();
}

FlowOutcome run_flow(const core::Link& link, const std::string& trace_path, const Options& o) {
  FlowOutcome out;
  const auto t0 = Clock::now();

  std::vector<std::uint64_t> words;
  {
    obs::Span span("streams::parse_trace");
    const auto source = streams::open_word_source(trace_path, kWidth);
    words = streams::collect(*source);
  }
  out.words = words.size();

  std::vector<std::uint64_t> coded(words.size());
  {
    obs::Span span("coding::encode");
    const auto codec = coding::make_codec_for_lines(kCodec, kWidth);
    for (std::size_t i = 0; i < words.size(); ++i) coded[i] = codec->encode(words[i]);
  }

  {
    obs::Span span("stats::compute_stats");
    out.line_stats = stats::compute_stats(coded, kWidth, o.threads);
  }

  const core::OptimizeResult best = [&] {
    obs::Span span("core::optimize_assignment");
    return core::optimize_assignment(out.line_stats, link.model(),
                                     anneal_options(o.seed, o.threads));
  }();
  out.assignment = best.assignment;
  out.evaluations = best.evaluations;

  double random_mean = 0.0;
  {
    obs::Span span("core::baselines");
    random_mean = core::random_assignment_power(out.line_stats, link.model(), kBaselineSamples,
                                                static_cast<unsigned>(o.seed), o.threads)
                      .mean;
    const double spiral =
        link.power(out.line_stats, core::spiral_assignment(link.geometry(), out.line_stats));
    const double sawtooth =
        link.power(out.line_stats, core::sawtooth_assignment(link.geometry(), out.line_stats));
    if (!(spiral > 0.0) || !(sawtooth > 0.0)) throw std::runtime_error("baseline power not positive");
  }
  out.reduction_pct = core::reduction_pct(random_mean, best.power);

  {
    obs::Span span("coding::roundtrip");
    core::CodedLink chain = link.coded(kCodec, best.assignment);
    for (const std::uint64_t w : words) {
      if (chain.roundtrip(w) != w) ++out.failed_words;
    }
  }

  {
    obs::Span span("circuit::simulate_link");
    const std::span<const std::uint64_t> window(coded.data(), std::min(kSignoffCycles, coded.size()));
    const double p_identity =
        signoff_power(link, out.line_stats, core::SignedPermutation::identity(kWidth), window);
    const double p_optimal = signoff_power(link, out.line_stats, best.assignment, window);
    out.circuit_reduction_pct = core::reduction_pct(p_identity, p_optimal);
  }

  out.flow_s = seconds_since(t0);
  return out;
}

}  // namespace

void run_design_flow(const Options& o, Report& report) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(kRows, kCols);

  // Input: a 16-bit Gaussian AR(1) trace from the seed, written as text.
  const std::string trace_path =
      o.work_dir + "/design-flow-" + std::to_string(o.seed) + ".trace";
  {
    streams::GaussianAr1Stream gen(kWidth, 2000.0, 0.95, o.seed);
    std::vector<std::uint64_t> words(kTraceWords);
    for (auto& w : words) w = gen.next();
    streams::save_trace(trace_path, words);
  }

  // Set-up: the field-solver fit, repeated; every fit must be identical.
  warm_up(o.threads);
  obs::enable_profiling(o.trace);
  std::vector<double> setup_s;
  std::vector<tsv::LinearCapacitanceModel> models;
  tsv::FieldFitStats fit_stats;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(timed_seconds([&] {
      obs::Span span("tsv::fit_from_field");
      field::ExtractionOptions fo;
      fo.cell = 0.125e-6;
      fo.threads = o.threads;
      models.push_back(tsv::fit_from_field(geom, fo, &fit_stats));
    }));
  }
  for (const auto& m : models) {
    report.check(m.c_ref() == models[0].c_ref() && m.delta_c() == models[0].delta_c(),
                 "field fit differs between repetitions");
  }
  report.check(fit_stats.nonconverged == 0, "field fit has non-converged solves");
  const core::Link link(geom, models[0]);

  if (o.trace) {
    const Profile setup = Profile::capture();
    const double fits = static_cast<double>(setup.count("tsv::fit_from_field"));
    report.layer["tsv.fit_s"] = {setup.total_s("tsv::fit_from_field") / fits, "s"};
    report.layer["field.extract_s"] = {setup.total_s("field.extract") / fits, "s"};
    report.layer["field.iterations"] = {static_cast<double>(fit_stats.iterations), "count"};
    obs::reset_profile();
  }

  // Timed part: whole flows until the budget is spent. In a traced run the
  // flows alternate profiling off/on so the profiler's cost is measured too.
  std::vector<double> flow_s, traced_flow_s, untraced_flow_s;
  std::vector<FlowOutcome> outcomes;
  const int min_flows = o.trace ? 2 * kMinFlows : kMinFlows;
  const auto budget_start = Clock::now();
  for (int k = 0; k < min_flows || seconds_since(budget_start) < o.seconds; ++k) {
    const bool profiled = o.trace && k % 2 == 1;
    obs::enable_profiling(profiled);
    outcomes.push_back(run_flow(link, trace_path, o));
    const double s = outcomes.back().flow_s;
    flow_s.push_back(s);
    (profiled ? traced_flow_s : untraced_flow_s).push_back(s);
  }
  obs::enable_profiling(false);
  const double rss = peak_rss_mb();

  // Correctness: every word round-trips; every flow lands on the same
  // assignment, and so does a 1-thread anneal of the same statistics.
  const FlowOutcome& first = outcomes.front();
  for (const auto& f : outcomes) {
    report.attempted += f.words;
    report.failed += f.failed_words;
    report.check(f.assignment == first.assignment, "assignment differs between flows");
    report.check(f.reduction_pct == first.reduction_pct &&
                     f.circuit_reduction_pct == first.circuit_reduction_pct,
                 "reductions differ between flows");
  }
  report.check(report.failed == 0, "coded round-trip lost words");
  const auto serial = core::optimize_assignment(first.line_stats, link.model(),
                                                anneal_options(o.seed, 1));
  report.check(serial.assignment == first.assignment,
               "assignment at 1 thread differs from the one at " + std::to_string(o.threads));
  std::filesystem::remove(trace_path);

  const double flow = median(flow_s);
  report.info["flow_s"] = {flow, "s"};
  report.info["reduction_pct"] = {first.reduction_pct, "%"};
  report.info["circuit_reduction_pct"] = {first.circuit_reduction_pct, "%"};
  report.info["flows"] = {static_cast<double>(outcomes.size()), "count"};
  report.info["trace_words"] = {static_cast<double>(first.words), "count"};
  if (!o.trace) {
    report.e2e["setup_s"] = {median(setup_s), "s"};
    report.e2e["job_s"] = {flow, "s"};
    report.e2e["throughput_per_s"] = {static_cast<double>(first.words) / flow, "1/s"};
    report.e2e["saving_pct"] = {first.reduction_pct, "%"};
    report.e2e["peak_rss_mb"] = {rss, "MB"};
    return;
  }

  const Profile p = Profile::capture();
  const double flows = static_cast<double>(traced_flow_s.size());
  const auto per_flow = [&](const char* span) { return p.total_s(span) / flows; };
  const double parse_s = per_flow("streams::parse_trace");
  const double optimize_s = per_flow("core::optimize_assignment");
  report.layer["streams.parse_s"] = {parse_s, "s"};
  report.layer["streams.words_per_s"] = {static_cast<double>(first.words) / parse_s, "1/s"};
  report.layer["coding.encode_s"] = {per_flow("coding::encode"), "s"};
  report.layer["stats.compute_s"] = {per_flow("stats::compute_stats"), "s"};
  report.layer["core.optimize_s"] = {optimize_s, "s"};
  report.layer["core.evaluations"] = {static_cast<double>(first.evaluations), "count"};
  report.layer["core.evals_per_s"] = {static_cast<double>(first.evaluations) / optimize_s, "1/s"};
  report.layer["core.baseline_s"] = {per_flow("core::baselines"), "s"};
  report.layer["coding.roundtrip_s"] = {per_flow("coding::roundtrip"), "s"};
  report.layer["circuit.simulate_s"] = {per_flow("circuit::simulate_link"), "s"};
  report.layer["circuit.cycles"] = {2.0 * static_cast<double>(kSignoffCycles), "count"};

  double wrapped = 0.0;
  for (const char* span : {"streams::parse_trace", "coding::encode", "stats::compute_stats",
                           "core::optimize_assignment", "core::baselines", "coding::roundtrip",
                           "circuit::simulate_link"}) {
    wrapped += p.total_s(span);
  }
  double traced_wall = 0.0;
  for (const double s : traced_flow_s) traced_wall += s;
  report.layer["obs.attributed_pct"] = {100.0 * wrapped / traced_wall, "%"};
  report.layer["obs.overhead_pct"] = {
      100.0 * (median(traced_flow_s) / median(untraced_flow_s) - 1.0), "%"};
}

}  // namespace perfbench
