// Ablation (beyond the paper's figures, supporting its Sec. 3 design
// choices) — how much of the optimal assignment's gain comes from
//  (a) pure reordering,
//  (b) adding inversions (sign flips in A_pi),
//  (c) modelling the MOS capacitance dependence (Eq. 9) in the objective.
//
// Evaluated on three representative workloads over a 4x4 array (r=2, d=8):
// Gray-coded Gaussian data (many near-stable-0 lines -> inversions + MOS
// matter), plain Gaussian data (balanced probabilities -> reordering does
// the work), and an image stream with a stable redundant line.
#include <cstdio>
#include <vector>

#include "coding/gray.hpp"
#include "common.hpp"
#include "streams/image_sensor.hpp"
#include "streams/random_streams.hpp"

using namespace tsvcod;

namespace {

void run(const char* name, const std::vector<std::uint64_t>& words, const core::Link& link) {
  const auto st = stats::compute_stats(words, link.width());
  const auto base = core::random_assignment_power(st, link.model(), 300);

  auto opts = bench::default_study().optimize;
  const auto full = core::optimize_assignment(st, link.model(), opts);

  auto no_inv = opts;
  no_inv.allow_inversions = false;
  const auto reorder_only = core::optimize_assignment(st, link.model(), no_inv);

  // MOS-blind objective: optimize against the fixed C_R matrix (a model
  // with zero Delta C), then price the found assignment with the full
  // probability-aware model. Same search engine as "full"; only the
  // objective differs.
  const phys::Matrix& c_ref = link.model().c_ref();
  const tsv::LinearCapacitanceModel mos_blind_model(c_ref,
                                                    phys::Matrix(c_ref.rows(), c_ref.cols()));
  const auto mos_blind = core::optimize_assignment(st, mos_blind_model, opts);
  const double mos_blind_power = core::assignment_power(st, mos_blind.assignment, link.model());

  std::printf("%-24s full %5.1f %%   no-inversions %5.1f %%   MOS-blind %5.1f %%\n", name,
              core::reduction_pct(base.mean, full.power),
              core::reduction_pct(base.mean, reorder_only.power),
              core::reduction_pct(base.mean, mos_blind_power));
}

}  // namespace

int main() {
  bench::print_header("Ablation: reordering vs inversions vs MOS-aware objective (4x4 r=2 d=8)",
                      "supports Sec. 3: inversions + MOS model matter most for skewed-probability "
                      "streams");
  const auto geom = phys::TsvArrayGeometry::itrs2018_relaxed(4, 4);
  const core::Link link(geom);

  {
    streams::GaussianAr1Stream src(16, 500.0, 0.3, 5);
    coding::GrayCodec gray(16);
    std::vector<std::uint64_t> words;
    for (int i = 0; i < 40000; ++i) words.push_back(gray.encode(src.next()));
    run("Gray-coded Gaussian", words, link);
  }
  {
    streams::GaussianAr1Stream src(16, 3000.0, 0.0, 6);
    std::vector<std::uint64_t> words;
    for (int i = 0; i < 40000; ++i) words.push_back(src.next());
    run("Gaussian (balanced)", words, link);
  }
  {
    streams::BayerQuadStream src;
    std::vector<std::uint64_t> words;
    for (int i = 0; i < 40000; ++i) words.push_back(src.next() & 0xFFFF);  // 16 b sub-bus
    run("Image sub-bus", words, link);
  }
  return 0;
}
