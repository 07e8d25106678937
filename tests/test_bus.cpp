// Tests for subset statistics and the multi-bundle bus partitioning.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "core/bus.hpp"
#include "streams/random_streams.hpp"

namespace {

using namespace tsvcod;

stats::SwitchingStats interleaved_two_channel_stats() {
  // Two independent, strongly sign-correlated 8 b Gaussian channels, packed
  // bit-interleaved: channel A on even bus bits, channel B on odd bus bits.
  streams::GaussianAr1Stream a(8, 12.0, 0.0, 1);
  streams::GaussianAr1Stream b(8, 12.0, 0.0, 2);
  std::vector<std::uint64_t> words(60000);
  for (auto& bus : words) {
    const std::uint64_t wa = a.next();
    const std::uint64_t wb = b.next();
    bus = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      bus |= ((wa >> k) & 1u) << (2 * k);
      bus |= ((wb >> k) & 1u) << (2 * k + 1);
    }
  }
  return stats::compute_stats(words, 16);
}

TEST(SubsetStats, ExtractsSelectedBits) {
  streams::SequentialStream src(8, 0.1, 3);
  const auto full = stats::compute_stats(streams::collect(src, 10000), 8);

  const std::vector<std::size_t> pick{7, 0, 3};
  const auto sub = stats::subset_stats(full, pick);
  ASSERT_EQ(sub.width, 3u);
  EXPECT_DOUBLE_EQ(sub.self[0], full.self[7]);
  EXPECT_DOUBLE_EQ(sub.self[1], full.self[0]);
  EXPECT_DOUBLE_EQ(sub.prob_one[2], full.prob_one[3]);
  EXPECT_DOUBLE_EQ(sub.coupling(0, 2), full.coupling(7, 3));
  EXPECT_DOUBLE_EQ(sub.coupling(0, 0), full.self[7]);
}

TEST(SubsetStats, Validation) {
  streams::UniformRandomStream src(4, 1);
  const auto full = stats::compute_stats(streams::collect(src, 100), 4);
  EXPECT_THROW(stats::subset_stats(full, std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_THROW(stats::subset_stats(full, std::vector<std::size_t>{4}), std::out_of_range);
}

TEST(BusGrouping, ContiguousSlices) {
  const auto st = interleaved_two_channel_stats();
  const auto groups = core::group_bus_bits(st, {8, 8}, core::GroupingStrategy::Contiguous);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{8, 9, 10, 11, 12, 13, 14, 15}));
}

TEST(BusGrouping, ClusteredReunitesInterleavedChannels) {
  const auto st = interleaved_two_channel_stats();
  const auto groups =
      core::group_bus_bits(st, {8, 8}, core::GroupingStrategy::CorrelationClustered);
  ASSERT_EQ(groups.size(), 2u);
  // Each group must be (almost) single-parity: one channel per bundle. The
  // uncorrelated LSBs can land anywhere, so check the seed cluster (first
  // four picks), which is driven by the strong MSB correlations.
  for (const auto& g : groups) {
    std::set<std::size_t> parities;
    for (std::size_t k = 0; k < 4; ++k) parities.insert(g[k] % 2);
    EXPECT_EQ(parities.size(), 1u) << "bundle seed mixes channels";
  }
}

TEST(BusGrouping, CoversEveryBitExactlyOnce) {
  const auto st = interleaved_two_channel_stats();
  for (const auto strategy :
       {core::GroupingStrategy::Contiguous, core::GroupingStrategy::CorrelationClustered}) {
    const auto groups = core::group_bus_bits(st, {6, 4, 6}, strategy);
    std::set<std::size_t> seen;
    for (const auto& g : groups) {
      for (const auto b : g) EXPECT_TRUE(seen.insert(b).second) << "duplicate bit";
    }
    EXPECT_EQ(seen.size(), 16u);
  }
}

TEST(BusGrouping, RejectsCapacityMismatch) {
  const auto st = interleaved_two_channel_stats();
  EXPECT_THROW(core::group_bus_bits(st, {8, 9}, core::GroupingStrategy::Contiguous),
               std::invalid_argument);
}

TEST(OptimizeBus, ClusteredBeatsContiguousOnInterleavedChannels) {
  const auto st = interleaved_two_channel_stats();
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(2, 4);
  const std::vector<core::Link> bundles{core::Link(geom), core::Link(geom)};

  core::OptimizeOptions opts;
  opts.schedule.iterations = 6000;
  const auto contiguous =
      core::optimize_bus(st, bundles, core::GroupingStrategy::Contiguous, opts);
  const auto clustered =
      core::optimize_bus(st, bundles, core::GroupingStrategy::CorrelationClustered, opts);

  ASSERT_EQ(contiguous.per_bundle.size(), 2u);
  EXPECT_NEAR(contiguous.total_power,
              contiguous.per_bundle[0].power + contiguous.per_bundle[1].power,
              1e-12 * contiguous.total_power);
  // Reuniting the correlated channels must help the in-bundle assignments.
  EXPECT_LT(clustered.total_power, contiguous.total_power * 0.995);
}

TEST(OptimizeBus, ForwardsInversionConstraints) {
  const auto st = interleaved_two_channel_stats();
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(2, 4);
  const std::vector<core::Link> bundles{core::Link(geom), core::Link(geom)};
  core::OptimizeOptions opts;
  opts.schedule.iterations = 2000;
  opts.allow_invert.assign(16, 1);
  opts.allow_invert[15] = 0;
  const auto res = core::optimize_bus(st, bundles, core::GroupingStrategy::Contiguous, opts);
  // Bus bit 15 is bundle 1, local index 7: must stay uninverted.
  const auto& g = res.bundle_bits[1];
  const auto local = static_cast<std::size_t>(
      std::find(g.begin(), g.end(), std::size_t{15}) - g.begin());
  EXPECT_FALSE(res.per_bundle[1].assignment.inverted(local));
}

}  // namespace
