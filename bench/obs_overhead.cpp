// Observability overhead study: the cost of the obs layer on the hot paths
// it instruments (annealing, extraction, serve ingest), with obs disabled, with
// metrics enabled, and with tracing enabled — plus per-operation costs of the
// disabled fast path (one relaxed atomic load + branch). The acceptance
// criterion for the disabled configuration is <= 2% over a build that never
// calls into obs at all; compare the `disabled` rows against the enabled ones
// with --benchmark_format=json for the usual BENCH JSON.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <random>
#include <vector>

#include "core/link.hpp"
#include "field/extractor.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "serve/session.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

enum class Mode { disabled, metrics, tracing, profiling };

void apply(Mode mode) {
  obs::enable_tracing(mode == Mode::tracing);
  obs::enable_metrics(mode == Mode::metrics);
  obs::enable_profiling(mode == Mode::profiling);
  obs::reset_trace();
  obs::reset_metrics();
  obs::reset_profile();
}

void teardown() {
  obs::enable_tracing(false);
  obs::enable_metrics(false);
  obs::enable_profiling(false);
  obs::reset_trace();
  obs::reset_metrics();
  obs::reset_profile();
}

// The annealing hot loop: the per-iteration instrumentation is a hoisted
// `tracing` bool plus two integer increments, so `disabled` must track a
// pre-obs build to within noise.
void BM_Annealing(benchmark::State& state, Mode mode) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(3, 3);
  const core::Link link(geom);
  streams::GaussianAr1Stream src(link.width(), 500.0, 0.4, 5);
  const auto st = link.measure(src, 20000);
  core::OptimizeOptions opts;
  opts.schedule.iterations = 20000;
  opts.chains = 2;
  opts.threads = 1;
  apply(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_assignment(st, link.model(), opts));
    // Keep trace memory bounded across benchmark iterations.
    if (mode == Mode::tracing) obs::reset_trace();
  }
  state.counters["iterations_anneal"] =
      static_cast<double>(opts.schedule.iterations) * static_cast<double>(opts.chains);
  teardown();
}

// The extraction hot loop: obs records only at solve granularity, never
// per grid cell, so all three modes should be indistinguishable.
void BM_Extraction(benchmark::State& state, Mode mode) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(geom.count(), 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.25e-6;
  opts.threads = 1;
  apply(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::extract_capacitance(geom, pr, opts));
    if (mode == Mode::tracing) obs::reset_trace();
  }
  teardown();
}

// The serve ingest path of a 64-bit correlator session, one 4096-word chunk
// per ingest call. Each call opens three spans: serve.ingest, its
// coding.roundtrip child and the fold's stats.compute. Every benchmark
// iteration ingests the chunk twice, once with profiling off and once on
// (the order alternates), and times the two calls apart: host noise then
// hits both sides alike, and `overhead_pct` is the profiled calls' extra
// time over the unprofiled ones.
void BM_ServeIngestProfilingOverhead(benchmark::State& state) {
  serve::SessionConfig cfg;
  cfg.width = 64;
  cfg.model = tsv::fit_from_analytic(phys::TsvArrayGeometry::itrs2018_relaxed(8, 8));
  cfg.codec.name = "correlator";
  cfg.drift.window_words = 4096;
  cfg.drift.threshold = 0.0;  // no re-anneals: time the traffic and fold only
  serve::Session session(1, cfg);
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> chunk(4096);
  for (auto& w : chunk) w = rng();
  apply(Mode::disabled);
  std::array<double, 2> seconds{};  // [profiling off, profiling on]
  bool profiled_first = false;
  for (auto _ : state) {
    for (const bool on : {profiled_first, !profiled_first}) {
      obs::enable_profiling(on);
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(session.ingest(chunk));
      seconds[on] += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    profiled_first = !profiled_first;
  }
  state.counters["overhead_pct"] = (seconds[1] / seconds[0] - 1.0) * 100.0;
  state.counters["words"] = benchmark::Counter(2.0 * static_cast<double>(chunk.size()),
                                               benchmark::Counter::kIsIterationInvariantRate);
  teardown();
}

// Per-operation cost of a *disabled* span: must compile down to one relaxed
// atomic load and a branch per constructor/destructor pair.
void BM_DisabledSpan(benchmark::State& state) {
  teardown();
  for (auto _ : state) {
    obs::Span span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}

void BM_DisabledCounterAndMetric(benchmark::State& state) {
  teardown();
  for (auto _ : state) {
    obs::counter("bench.disabled.counter", 1.0);
    obs::metric_add("bench.disabled.metric");
  }
}

// Per-operation cost of an *enabled* span on one thread (string build +
// buffer append under an uncontended mutex): the budget a caller pays for
// each traced region, so spans must wrap solves and chains, not iterations.
void BM_EnabledSpan(benchmark::State& state) {
  apply(Mode::tracing);
  for (auto _ : state) {
    {
      obs::Span span("bench.enabled");
      benchmark::DoNotOptimize(&span);
    }
    if ((state.iterations() & 0xFFFF) == 0) obs::reset_trace();
  }
  teardown();
}

void BM_EnabledMetricAdd(benchmark::State& state) {
  apply(Mode::metrics);
  for (auto _ : state) {
    obs::metric_add("bench.enabled.metric");
  }
  teardown();
}

// Per-operation cost of a *profiled* span: node lookup (fast path: cached
// child under the tree mutex only on first visit), two clock reads and a
// perf-group read when hardware counters are available. Spans stay at solve
// and chain granularity, so this budget is paid thousands — not millions —
// of times per run.
void BM_EnabledSpanProfiled(benchmark::State& state) {
  apply(Mode::profiling);
  for (auto _ : state) {
    obs::Span span("bench.profiled");
    benchmark::DoNotOptimize(&span);
  }
  teardown();
}

}  // namespace

BENCHMARK_CAPTURE(BM_Annealing, disabled, Mode::disabled)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Annealing, metrics, Mode::metrics)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Annealing, tracing, Mode::tracing)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Annealing, profiling, Mode::profiling)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, disabled, Mode::disabled)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, metrics, Mode::metrics)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, tracing, Mode::tracing)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Extraction, profiling, Mode::profiling)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeIngestProfilingOverhead)
    ->Unit(benchmark::kMicrosecond)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);
BENCHMARK(BM_DisabledSpan);
BENCHMARK(BM_DisabledCounterAndMetric);
BENCHMARK(BM_EnabledSpan);
BENCHMARK(BM_EnabledMetricAdd);
BENCHMARK(BM_EnabledSpanProfiled);
