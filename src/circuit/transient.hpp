#pragma once
// Fixed-step backward-Euler MNA transient simulator.
//
// Unknowns are the node voltages (ground eliminated) plus one branch current
// per voltage source and per inductor. Capacitors and inductors use
// backward-Euler companion models — L-stable, so the sharp driver edges do
// not ring (trapezoidal ringing would corrupt the rectified charge meter).
// For a fixed step the system matrix is constant: it is LU-factorized once
// and only the right-hand side changes per step. The step is therefore an
// affine map of the state and the source voltages, which `advance` exposes
// for callers that compose many steps into one (the link propagator of
// tsv_link_sim.cpp, DESIGN §5m).
//
// Sign conventions: a source's branch current flows from its + node through
// the source; `source_energy` reports the energy *delivered by* the source,
// which for a switched CMOS driver model equals the supply energy drawn.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "phys/matrix.hpp"

namespace tsvcod::circuit {

class TransientSim {
 public:
  TransientSim(const Netlist& netlist, double dt);

  /// Advance one step of size dt.
  void step();
  /// Advance until `t_end` (inclusive of the last partial-free step).
  void run_until(double t_end);

  /// Step count times dt: computed, not accumulated, so a sample meant for
  /// a cycle boundary lands on it after any number of steps.
  double time() const { return static_cast<double>(steps_) * dt_; }
  double node_voltage(int node) const;
  /// Energy delivered by source `id` since t = 0 [J] (∫ v·i dt).
  double source_energy(int id) const;
  /// Sourced (positive-direction) charge of source `id` since t = 0 [C]:
  /// ∫ max(i, 0) dt. For a switched CMOS driver the supply energy is
  /// Vdd times this charge — the rail draws Q·Vdd per pull-up regardless of
  /// the edge shape, unlike the ∫v·i of the ramped Thevenin source.
  double source_positive_charge(int id) const;
  /// Instantaneous current out of source `id`'s + terminal [A].
  double source_current(int id) const;

  /// Length of the MNA state: node voltages (node k at k - 1), then one
  /// branch current per source, then one per inductor.
  std::size_t state_size() const { return static_cast<std::size_t>(dim_); }
  /// Position of source `id`'s branch current in the state. The current the
  /// source delivers is its negation.
  std::size_t source_state_index(int id) const;
  /// One backward-Euler step from any state: writes to `next` the state
  /// that follows `state` when the sources sit at `source_volts` at the end
  /// of the step. `step()` is this plus the time and energy bookkeeping.
  /// `next` must not overlap `state`.
  void advance(std::span<const double> state, std::span<const double> source_volts,
               std::span<double> next) const;

 private:
  void assemble();
  void factorize();
  void solve(std::span<double> b) const;

  const Netlist& net_;
  double dt_;
  std::uint64_t steps_ = 0;
  int n_nodes_;
  int n_src_;
  int n_ind_;
  int dim_;

  phys::Matrix lu_;               ///< LU factors (in place, Doolittle w/ partial pivoting)
  std::vector<int> pivot_;
  std::vector<double> x_;         ///< current solution (voltages + branch currents)
  std::vector<double> next_;      ///< scratch: the state after the step in flight
  std::vector<double> v_src_;     ///< source voltages at time()
  std::vector<double> v_next_;    ///< scratch: source voltages one step later
  std::vector<double> src_energy_;
  std::vector<double> src_charge_pos_;
};

}  // namespace tsvcod::circuit
