// Multi-bundle bus study (extension of the paper's method): a 32-bit bus of
// two 16 b sensor channels crosses the 3D interface through two 4x4 TSV
// bundles — but the net order on the bus is the arbitrary one a synthesis
// tool left behind (a fixed scramble). The paper's in-bundle assignment is
// applied either on the routing-natural contiguous split of that scrambled
// order (which scatters each channel's correlated MSB cluster over both
// bundles) or on a correlation-clustered split that reunites the clusters
// before assigning.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/bus.hpp"
#include "streams/random_streams.hpp"

#include <algorithm>
#include <numeric>
#include <random>

using namespace tsvcod;

namespace {

stats::SwitchingStats make_bus_stats(double rho) {
  streams::GaussianAr1Stream a(16, 800.0, rho, 1);
  streams::GaussianAr1Stream b(16, 800.0, rho, 2);
  // Fixed arbitrary net order ("as the synthesis tool left it").
  std::vector<std::size_t> scramble(32);
  std::iota(scramble.begin(), scramble.end(), std::size_t{0});
  std::mt19937_64 rng(7);
  std::shuffle(scramble.begin(), scramble.end(), rng);

  std::vector<std::uint64_t> words(60000);
  for (auto& bus : words) {
    const std::uint64_t w = a.next() | (b.next() << 16);
    bus = 0;
    for (std::size_t k = 0; k < 32; ++k) bus |= ((w >> k) & 1u) << scramble[k];
  }
  return stats::compute_stats(words, 32, 1);
}

}  // namespace

int main() {
  bench::print_header("Bus partitioning: 32 b over two 4x4 bundles (beyond the paper)",
                      "correlation clustering reunites scrambled channels before the "
                      "in-bundle assignment");

  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const std::vector<core::Link> bundles{core::Link(geom), core::Link(geom)};
  auto opts = bench::default_study().optimize;

  std::printf("%-8s %18s %18s %12s\n", "rho", "contiguous aF", "clustered aF", "extra red %");
  for (const double rho : {0.0, 0.4, 0.8}) {
    const auto st = make_bus_stats(rho);
    const auto cont = core::optimize_bus(st, bundles, core::GroupingStrategy::Contiguous, opts);
    const auto clus =
        core::optimize_bus(st, bundles, core::GroupingStrategy::CorrelationClustered, opts);
    std::printf("%-8.1f %18.1f %18.1f %12.1f\n", rho, cont.total_power * 1e18,
                clus.total_power * 1e18,
                core::reduction_pct(cont.total_power, clus.total_power));
  }
  return 0;
}
