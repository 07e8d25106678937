// Unit tests for the MNA transient simulator and the 3-pi TSV link model,
// validated against closed-form RC/RL results and the analytic energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/transient.hpp"
#include "circuit/tsv_link_sim.hpp"
#include "phys/constants.hpp"
#include "tsv/analytic_model.hpp"

namespace {

using namespace tsvcod;
using namespace tsvcod::circuit;

TEST(Netlist, Validation) {
  Netlist net;
  const int a = net.add_node();
  EXPECT_THROW(net.resistor(a, 99, 10.0), std::invalid_argument);
  EXPECT_THROW(net.resistor(a, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(net.inductor(a, 0, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(net.capacitor(a, 0, 0.0));  // zero caps are dropped
  EXPECT_TRUE(net.capacitors().empty());
}

TEST(Waveform, BitSequenceShape) {
  const auto w = bit_waveform({1, 0, 1}, 1e-9, 0.1e-9, 1.0);
  EXPECT_DOUBLE_EQ(w(0.0), 0.0);
  EXPECT_NEAR(w(0.05e-9), 0.5, 1e-9);   // rising into cycle 0
  EXPECT_DOUBLE_EQ(w(0.5e-9), 1.0);     // settled high
  EXPECT_NEAR(w(1.05e-9), 0.5, 1e-9);   // falling into cycle 1
  EXPECT_DOUBLE_EQ(w(1.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(w(2.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w(10e-9), 1.0);      // holds last bit
  EXPECT_THROW(bit_waveform({}, 1e-9, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(bit_waveform({1}, 1e-9, 2e-9, 1.0), std::invalid_argument);
}

TEST(Transient, RcChargeMatchesClosedForm) {
  // 1 kOhm, 1 pF charged from a 1 V step: v(t) = 1 - exp(-t/RC).
  Netlist net;
  const int s = net.add_node();
  const int out = net.add_node();
  net.vsource(s, Netlist::kGround, dc(1.0));
  net.resistor(s, out, 1000.0);
  net.capacitor(out, Netlist::kGround, 1e-12);

  TransientSim sim(net, 1e-12);
  sim.run_until(3e-9);  // 3 tau
  EXPECT_NEAR(sim.node_voltage(out), 1.0 - std::exp(-3.0), 2e-3);
}

TEST(Transient, RcEnergyConservation) {
  // After full charge the source has delivered C*V^2: half stored, half
  // dissipated in the resistor.
  Netlist net;
  const int s = net.add_node();
  const int out = net.add_node();
  const int src = net.vsource(s, Netlist::kGround, dc(1.0));
  net.resistor(s, out, 500.0);
  net.capacitor(out, Netlist::kGround, 2e-12);

  TransientSim sim(net, 0.5e-12);
  sim.run_until(20e-9);  // 20 tau
  EXPECT_NEAR(sim.source_energy(src), 2e-12, 2e-14);
}

TEST(Transient, ResistorDividerDc) {
  Netlist net;
  const int s = net.add_node();
  const int mid = net.add_node();
  net.vsource(s, Netlist::kGround, dc(2.0));
  net.resistor(s, mid, 1000.0);
  net.resistor(mid, Netlist::kGround, 3000.0);
  TransientSim sim(net, 1e-12);
  sim.step();
  EXPECT_NEAR(sim.node_voltage(mid), 1.5, 1e-9);
  EXPECT_NEAR(sim.source_current(0), 2.0 / 4000.0, 1e-12);
}

TEST(Transient, RlStepApproachesOhmicCurrent) {
  // Series R-L to ground: i -> V/R with time constant L/R.
  Netlist net;
  const int s = net.add_node();
  const int mid = net.add_node();
  const int src = net.vsource(s, Netlist::kGround, dc(1.0));
  net.resistor(s, mid, 100.0);
  net.inductor(mid, Netlist::kGround, 1e-9);  // tau = 10 ps
  TransientSim sim(net, 0.2e-12);
  sim.run_until(100e-12);
  EXPECT_NEAR(sim.source_current(src), 1.0 / 100.0, 2e-4);
}

TEST(Transient, CouplingChargesNeighbour) {
  // Two RC lines with a coupling cap: a step on line A must transiently lift
  // line B (the crosstalk the coding fights).
  Netlist net;
  const int sa = net.add_node();
  const int a = net.add_node();
  const int b = net.add_node();
  net.vsource(sa, Netlist::kGround, bit_waveform({1}, 1e-9, 10e-12, 1.0));
  net.resistor(sa, a, 300.0);
  net.resistor(b, Netlist::kGround, 300.0);
  net.capacitor(a, Netlist::kGround, 10e-15);
  net.capacitor(b, Netlist::kGround, 10e-15);
  net.capacitor(a, b, 20e-15);
  TransientSim sim(net, 0.5e-12);
  double peak_b = 0.0;
  while (sim.time() < 0.2e-9) {
    sim.step();
    peak_b = std::max(peak_b, sim.node_voltage(b));
  }
  EXPECT_GT(peak_b, 0.1);  // visible coupled noise
  EXPECT_LT(peak_b, 1.0);
}

TEST(Transient, TimeIsStepCountTimesDtExactly) {
  // A period/40 step at 3 GHz is not a binary fraction: a running sum of
  // it leaves n·dt after a handful of steps.
  Netlist net;
  const int s = net.add_node();
  net.vsource(s, Netlist::kGround, dc(1.0));
  net.resistor(s, Netlist::kGround, 100.0);
  const double dt = (1.0 / 3e9) / 40;
  TransientSim sim(net, dt);
  EXPECT_EQ(sim.time(), 0.0);
  for (int n = 1; n <= 40000; ++n) {
    sim.step();
    ASSERT_EQ(sim.time(), static_cast<double>(n) * dt) << "after " << n << " steps";
  }
}

TEST(Transient, AdvanceFromAnyStateIsTheStep) {
  // step() is advance() from the current state under the sources' voltages
  // at the end of the step.
  Netlist net;
  const int s = net.add_node();
  const int mid = net.add_node();
  const int out = net.add_node();
  net.vsource(s, Netlist::kGround, bit_waveform({1, 0, 1}, 1e-10, 2e-11, 1.0));
  net.resistor(s, mid, 50.0);
  net.inductor(mid, out, 1e-11);
  net.capacitor(out, Netlist::kGround, 1e-14);
  TransientSim sim(net, 1e-12);
  ASSERT_EQ(sim.state_size(), 5u);  // 3 nodes, 1 source, 1 inductor
  std::vector<double> state(sim.state_size(), 0.0), next(sim.state_size());
  for (int k = 0; k < 250; ++k) {
    const std::vector<double> volts{net.sources()[0].v(static_cast<double>(k + 1) * 1e-12)};
    sim.advance(state, volts, next);
    sim.step();
    ASSERT_EQ(sim.node_voltage(out), next[static_cast<std::size_t>(out - 1)]) << "step " << k;
    ASSERT_EQ(sim.source_current(0), -next[sim.source_state_index(0)]) << "step " << k;
    state = next;
  }
  const std::vector<double> wrong(2, 0.0);
  EXPECT_THROW(sim.advance(state, wrong, next), std::invalid_argument);
}

TEST(TsvParasitics, ResistanceAndInductanceScale) {
  auto g1 = phys::TsvArrayGeometry::itrs2018_min(1, 1);
  auto g2 = phys::TsvArrayGeometry::itrs2018_relaxed(1, 1);
  // R = rho*l/(pi r^2): quadrupling the radius area cuts R by 4.
  EXPECT_NEAR(tsv_resistance(g1) / tsv_resistance(g2), 4.0, 1e-9);
  EXPECT_GT(tsv_resistance(g1), 0.1);
  EXPECT_LT(tsv_resistance(g1), 1.0);   // ~0.27 Ohm for 50 um x 1 um Cu
  EXPECT_GT(tsv_inductance(g1), 1e-11); // tens of pH
  EXPECT_LT(tsv_inductance(g1), 1e-10);
}

class LinkSimEnergy : public ::testing::TestWithParam<int> {};

TEST_P(LinkSimEnergy, MatchesAnalyticCvvModel) {
  // A single isolated TSV toggling every cycle must draw ~ C_total * Vdd^2
  // per 0->1 transition (all of it dissipated across the cycle pair).
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 1);
  const std::vector<double> pr(1, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);

  std::vector<std::uint64_t> words;
  const int cycles = 64;
  for (int i = 0; i < cycles; ++i) words.push_back(static_cast<std::uint64_t>(i % 2));

  DriverParams drv;
  SimOptions opts;
  opts.steps_per_cycle = GetParam();
  const auto res = simulate_link(geom, cap, words, drv, opts);

  const double c_total = cap(0, 0) + drv.receiver_cap;
  const double expected = c_total * drv.vdd * drv.vdd * (cycles / 2) / 1.0;
  EXPECT_NEAR(res.dynamic_energy / (expected / 1.0), 1.0, 0.1)
      << "steps/cycle=" << GetParam();
  EXPECT_GT(res.leakage_power, 0.0);
  EXPECT_EQ(res.cycles, static_cast<std::size_t>(cycles));
}

INSTANTIATE_TEST_SUITE_P(StepsPerCycle, LinkSimEnergy, ::testing::Values(30, 60));

TEST(LinkSim, OppositeTogglingCostsMoreThanAligned) {
  // The physical root of the coding gain: opposite switching on a coupled
  // pair must burn more supply energy than aligned switching.
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const std::vector<double> pr(2, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);

  std::vector<std::uint64_t> aligned, opposite;
  for (int i = 0; i < 64; ++i) {
    aligned.push_back(i % 2 ? 0b11 : 0b00);
    opposite.push_back(i % 2 ? 0b10 : 0b01);
  }
  const auto ea = simulate_link(geom, cap, aligned);
  const auto eo = simulate_link(geom, cap, opposite);
  EXPECT_GT(eo.dynamic_energy, ea.dynamic_energy * 1.2);
}

TEST(LinkSim, StableLinesDrawAlmostNothing) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const std::vector<double> pr(2, 0.5);
  const auto cap = tsv::analytic_capacitance(geom, pr);
  std::vector<std::uint64_t> quiet(64, 0b01);
  const auto res = simulate_link(geom, cap, quiet);
  // Only the initial charge of line 0; mean power far below a toggling link.
  std::vector<std::uint64_t> busy;
  for (int i = 0; i < 64; ++i) busy.push_back(i % 2 ? 0b10 : 0b01);
  const auto busy_res = simulate_link(geom, cap, busy);
  EXPECT_LT(res.dynamic_power, 0.1 * busy_res.dynamic_power);
}

TEST(LinkSim, InputValidation) {
  auto geom = phys::TsvArrayGeometry::itrs2018_min(1, 2);
  const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(2, 0.5));
  std::vector<std::uint64_t> one(1, 0);
  EXPECT_THROW(simulate_link(geom, cap, one), std::invalid_argument);
  phys::Matrix wrong(3, 3);
  std::vector<std::uint64_t> words(4, 0);
  EXPECT_THROW(simulate_link(geom, wrong, words), std::invalid_argument);
  DriverParams slow;
  slow.rise_time = 1.0 / 3e9;  // an edge as long as the clock period
  EXPECT_THROW(simulate_link(geom, cap, words, slow), std::invalid_argument);
  SimOptions no_steps;
  no_steps.steps_per_cycle = 0;
  EXPECT_THROW(simulate_link(geom, cap, words, {}, no_steps), std::invalid_argument);
}

TEST(LinkSim, PropagatorMatchesTheStepLoop) {
  // simulate_link compiles the step loop into one map per cycle; it must
  // reproduce simulate_link_stepwise to rounding, also with edges spanning
  // several steps and without inductance.
  struct Shape {
    std::size_t rows, cols;
    int steps;
    double rise;
    bool inductance;
    int segments;
  };
  const Shape shapes[] = {{2, 2, 40, 5e-12, true, 3},
                          {3, 3, 24, 5e-12, true, 3},
                          {2, 3, 6, 100e-12, false, 1},
                          {1, 3, 9, 60e-12, true, 2}};
  std::mt19937_64 rng(11);
  for (const Shape& sh : shapes) {
    const auto geom = phys::TsvArrayGeometry::itrs2018_min(sh.rows, sh.cols);
    const auto cap = tsv::analytic_capacitance(geom, std::vector<double>(geom.count(), 0.4));
    std::vector<std::uint64_t> words(300);
    for (auto& w : words) w = rng() & ((std::uint64_t{1} << geom.count()) - 1);
    DriverParams drv;
    drv.rise_time = sh.rise;
    SimOptions opts;
    opts.steps_per_cycle = sh.steps;
    opts.with_inductance = sh.inductance;
    opts.segments = sh.segments;
    const auto fast = simulate_link(geom, cap, words, drv, opts);
    const auto ref = simulate_link_stepwise(geom, cap, words, drv, opts);
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_NEAR(fast.dynamic_energy / ref.dynamic_energy, 1.0, 1e-9)
        << sh.rows << "x" << sh.cols << " steps=" << sh.steps;
    EXPECT_NEAR(fast.dynamic_power / ref.dynamic_power, 1.0, 1e-9);
    EXPECT_EQ(fast.leakage_power, ref.leakage_power);
  }
}

}  // namespace
