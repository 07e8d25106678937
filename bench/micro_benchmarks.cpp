// Google-benchmark microbenchmarks: costs of the building blocks (power
// evaluation, annealing, capacitance extraction, statistics, codecs, the NoC
// cycle; bench/circuit_propagator times the circuit sign-off). These back
// the paper's Sec. 3 remark that the optimization runtime is "negligibly
// low" per TSV bundle.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "noc/simulator.hpp"
#include "coding/bus_invert.hpp"
#include "coding/correlator.hpp"
#include "coding/gray.hpp"
#include "coding/t0.hpp"
#include "core/coded_link.hpp"
#include "core/evaluator.hpp"
#include "core/link.hpp"
#include "field/extractor.hpp"
#include "streams/random_streams.hpp"
#include "tsv/analytic_model.hpp"

using namespace tsvcod;

namespace {

stats::SwitchingStats make_stats(std::size_t width) {
  streams::SequentialStream src(width, 0.05, 3);
  return stats::compute_stats(streams::collect(src, 20000), width, 1);
}

void BM_AssignmentPowerEval(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  phys::TsvArrayGeometry geom = phys::TsvArrayGeometry::itrs2018_min(rows, rows);
  const core::Link link(geom);
  const auto st = make_stats(geom.count());
  std::mt19937_64 rng(1);
  auto a = core::SignedPermutation::random(geom.count(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::assignment_power(st, a, link.model()));
  }
}
BENCHMARK(BM_AssignmentPowerEval)->Arg(3)->Arg(4)->Arg(6);

void BM_OptimizeAssignmentSA(benchmark::State& state) {
  phys::TsvArrayGeometry geom = phys::TsvArrayGeometry::itrs2018_min(4, 4);
  const core::Link link(geom);
  const auto st = make_stats(16);
  core::OptimizeOptions opts;
  opts.schedule.iterations = static_cast<int>(state.range(0));
  opts.schedule.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimize_assignment(st, link.model(), opts));
  }
}
BENCHMARK(BM_OptimizeAssignmentSA)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_AnalyticCapacitance(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  phys::TsvArrayGeometry geom = phys::TsvArrayGeometry::itrs2018_min(rows, rows);
  const std::vector<double> pr(geom.count(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsv::analytic_capacitance(geom, pr));
  }
}
BENCHMARK(BM_AnalyticCapacitance)->Arg(3)->Arg(5)->Arg(8);

void BM_FieldExtraction2x2(benchmark::State& state) {
  phys::TsvArrayGeometry geom = phys::TsvArrayGeometry::itrs2018_min(2, 2);
  const std::vector<double> pr(4, 0.5);
  field::ExtractionOptions opts;
  opts.cell = 0.25e-6;  // coarse benchmark grid
  for (auto _ : state) {
    benchmark::DoNotOptimize(field::extract_capacitance(geom, pr, opts));
  }
}
BENCHMARK(BM_FieldExtraction2x2)->Unit(benchmark::kMillisecond);

void BM_StatsAccumulate(benchmark::State& state) {
  streams::UniformRandomStream src(32, 5);
  std::vector<std::uint64_t> words;
  for (int i = 0; i < 4096; ++i) words.push_back(src.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::compute_stats(words, 32));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_StatsAccumulate);

void BM_GrayEncode(benchmark::State& state) {
  coding::GrayCodec codec(32);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(++v));
  }
}
BENCHMARK(BM_GrayEncode);

void BM_CouplingInvertEncode(benchmark::State& state) {
  coding::CouplingInvertCodec codec(15);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(rng() & 0x7FFF));
  }
}
BENCHMARK(BM_CouplingInvertEncode);

// The full correlator chain (encode -> lines -> decode) at width range(0),
// one word per call and in 512-word blocks; items/s is words/s.
core::CodedLink correlator_link(std::size_t width) {
  std::mt19937_64 rng(5);
  return core::CodedLink(
      core::SignedPermutation::random(width, rng, std::vector<std::uint8_t>(width, 1)),
      std::make_unique<coding::CorrelatorCodec>(width, 1));
}

void BM_CodedLinkRoundtrip(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  core::CodedLink link = correlator_link(width);
  std::mt19937_64 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.roundtrip(rng() & streams::width_mask(width)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodedLinkRoundtrip)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_CodedLinkRoundtripBlock(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  core::CodedLink link = correlator_link(width);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> words(512), out(512);
  for (auto& w : words) w = rng() & streams::width_mask(width);
  for (auto _ : state) {
    link.roundtrip_block(words, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(words.size()));
}
BENCHMARK(BM_CodedLinkRoundtripBlock)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_EvaluatorSwapMove(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  phys::TsvArrayGeometry geom = phys::TsvArrayGeometry::itrs2018_min(rows, rows);
  const core::Link link(geom);
  const auto st = make_stats(geom.count());
  core::PowerEvaluator ev(st, link.model(), core::SignedPermutation::identity(geom.count()));
  std::mt19937_64 rng(2);
  std::uniform_int_distribution<std::size_t> pick(0, geom.count() - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.swap_bits(pick(rng), pick(rng)));
  }
}
BENCHMARK(BM_EvaluatorSwapMove)->Arg(4)->Arg(6)->Arg(8);

void BM_T0Encode(benchmark::State& state) {
  coding::T0Codec codec(32);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(++addr));
  }
}
BENCHMARK(BM_T0Encode);

void BM_NocCycle(benchmark::State& state) {
  noc::Mesh3D mesh(4, 4, 2);
  noc::TrafficConfig cfg;
  cfg.injection_rate = 0.2;
  noc::NocSimulator sim(mesh, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NocCycle)->Unit(benchmark::kMillisecond);

}  // namespace
