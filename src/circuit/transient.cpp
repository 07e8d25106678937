#include "circuit/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsvcod::circuit {

namespace {

constexpr int kGround = Netlist::kGround;

}  // namespace

TransientSim::TransientSim(const Netlist& netlist, double dt) : net_(netlist), dt_(dt) {
  if (!(dt > 0.0)) throw std::invalid_argument("TransientSim: dt must be positive");
  n_nodes_ = net_.node_count();
  n_src_ = static_cast<int>(net_.sources().size());
  n_ind_ = static_cast<int>(net_.inductors().size());
  dim_ = n_nodes_ + n_src_ + n_ind_;
  if (dim_ == 0) throw std::invalid_argument("TransientSim: empty netlist");
  x_.assign(static_cast<std::size_t>(dim_), 0.0);
  next_.assign(static_cast<std::size_t>(dim_), 0.0);
  v_src_.resize(static_cast<std::size_t>(n_src_));
  for (int s = 0; s < n_src_; ++s) {
    v_src_[static_cast<std::size_t>(s)] = net_.sources()[static_cast<std::size_t>(s)].v(0.0);
  }
  v_next_.assign(static_cast<std::size_t>(n_src_), 0.0);
  src_energy_.assign(static_cast<std::size_t>(n_src_), 0.0);
  src_charge_pos_.assign(static_cast<std::size_t>(n_src_), 0.0);
  assemble();
  factorize();
}

void TransientSim::assemble() {
  lu_ = phys::Matrix(static_cast<std::size_t>(dim_), static_cast<std::size_t>(dim_));
  const auto idx = [](int node) { return static_cast<std::size_t>(node - 1); };
  const auto stamp_conductance = [&](int a, int b, double g) {
    if (a != kGround) lu_(idx(a), idx(a)) += g;
    if (b != kGround) lu_(idx(b), idx(b)) += g;
    if (a != kGround && b != kGround) {
      lu_(idx(a), idx(b)) -= g;
      lu_(idx(b), idx(a)) -= g;
    }
  };
  for (const auto& r : net_.resistors()) stamp_conductance(r.a, r.b, 1.0 / r.ohms);
  for (const auto& c : net_.capacitors()) stamp_conductance(c.a, c.b, c.farads / dt_);

  for (int s = 0; s < n_src_; ++s) {
    const auto& src = net_.sources()[static_cast<std::size_t>(s)];
    const std::size_t row = static_cast<std::size_t>(n_nodes_ + s);
    if (src.plus != kGround) {
      lu_(row, idx(src.plus)) = 1.0;
      lu_(idx(src.plus), row) = 1.0;
    }
    if (src.minus != kGround) {
      lu_(row, idx(src.minus)) = -1.0;
      lu_(idx(src.minus), row) = -1.0;
    }
  }
  for (int l = 0; l < n_ind_; ++l) {
    const auto& ind = net_.inductors()[static_cast<std::size_t>(l)];
    const std::size_t row = static_cast<std::size_t>(n_nodes_ + n_src_ + l);
    if (ind.a != kGround) {
      lu_(row, idx(ind.a)) = 1.0;
      lu_(idx(ind.a), row) = 1.0;
    }
    if (ind.b != kGround) {
      lu_(row, idx(ind.b)) = -1.0;
      lu_(idx(ind.b), row) = -1.0;
    }
    lu_(row, row) = -ind.henries / dt_;
  }
}

void TransientSim::factorize() {
  const int n = dim_;
  pivot_.resize(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    // Partial pivoting.
    int p = k;
    double best = std::abs(lu_(static_cast<std::size_t>(k), static_cast<std::size_t>(k)));
    for (int r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(static_cast<std::size_t>(r), static_cast<std::size_t>(k)));
      if (v > best) {
        best = v;
        p = r;
      }
    }
    if (best < 1e-300) throw std::runtime_error("TransientSim: singular MNA matrix");
    pivot_[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (int c = 0; c < n; ++c) {
        std::swap(lu_(static_cast<std::size_t>(k), static_cast<std::size_t>(c)),
                  lu_(static_cast<std::size_t>(p), static_cast<std::size_t>(c)));
      }
    }
    const double pivot = lu_(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
    for (int r = k + 1; r < n; ++r) {
      const double f = lu_(static_cast<std::size_t>(r), static_cast<std::size_t>(k)) / pivot;
      lu_(static_cast<std::size_t>(r), static_cast<std::size_t>(k)) = f;
      if (f == 0.0) continue;
      for (int c = k + 1; c < n; ++c) {
        lu_(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) -=
            f * lu_(static_cast<std::size_t>(k), static_cast<std::size_t>(c));
      }
    }
  }
}

void TransientSim::solve(std::span<double> b) const {
  const std::size_t n = static_cast<std::size_t>(dim_);
  const double* lu = lu_.data().data();
  // Apply row permutation, then forward/back substitution.
  for (std::size_t k = 0; k < n; ++k) {
    const auto p = static_cast<std::size_t>(pivot_[k]);
    if (p != k) std::swap(b[k], b[p]);
    const double* row = lu + k * n;
    double v = b[k];
    for (std::size_t c = 0; c < k; ++c) v -= row[c] * b[c];
    b[k] = v;
  }
  for (std::size_t k = n; k-- > 0;) {
    const double* row = lu + k * n;
    double v = b[k];
    for (std::size_t c = k + 1; c < n; ++c) v -= row[c] * b[c];
    b[k] = v / row[k];
  }
}

double TransientSim::node_voltage(int node) const {
  if (node == kGround) return 0.0;
  if (node < 0 || node > n_nodes_) throw std::invalid_argument("node_voltage: unknown node");
  return x_[static_cast<std::size_t>(node - 1)];
}

double TransientSim::source_current(int id) const {
  if (id < 0 || id >= n_src_) throw std::invalid_argument("source_current: unknown source");
  // The MNA branch current flows into the + terminal; delivered current is
  // its negation.
  return -x_[static_cast<std::size_t>(n_nodes_ + id)];
}

double TransientSim::source_energy(int id) const {
  if (id < 0 || id >= n_src_) throw std::invalid_argument("source_energy: unknown source");
  return src_energy_[static_cast<std::size_t>(id)];
}

double TransientSim::source_positive_charge(int id) const {
  if (id < 0 || id >= n_src_) {
    throw std::invalid_argument("source_positive_charge: unknown source");
  }
  return src_charge_pos_[static_cast<std::size_t>(id)];
}

std::size_t TransientSim::source_state_index(int id) const {
  if (id < 0 || id >= n_src_) throw std::invalid_argument("source_state_index: unknown source");
  return static_cast<std::size_t>(n_nodes_ + id);
}

void TransientSim::advance(std::span<const double> state, std::span<const double> source_volts,
                           std::span<double> next) const {
  if (state.size() != x_.size() || next.size() != x_.size() ||
      source_volts.size() != v_src_.size()) {
    throw std::invalid_argument("TransientSim::advance: state or source size mismatch");
  }
  std::fill(next.begin(), next.end(), 0.0);
  // Capacitor history currents (backward-Euler companion: G = C/dt).
  for (const auto& c : net_.capacitors()) {
    const double va = c.a == kGround ? 0.0 : state[static_cast<std::size_t>(c.a - 1)];
    const double vb = c.b == kGround ? 0.0 : state[static_cast<std::size_t>(c.b - 1)];
    const double hist = c.farads / dt_ * (va - vb);
    if (c.a != kGround) next[static_cast<std::size_t>(c.a - 1)] += hist;
    if (c.b != kGround) next[static_cast<std::size_t>(c.b - 1)] -= hist;
  }
  for (int s = 0; s < n_src_; ++s) {
    next[static_cast<std::size_t>(n_nodes_ + s)] = source_volts[static_cast<std::size_t>(s)];
  }
  // Inductor history (backward Euler: v = (L/dt)(i_new - i_old)).
  for (int l = 0; l < n_ind_; ++l) {
    const auto row = static_cast<std::size_t>(n_nodes_ + n_src_ + l);
    next[row] = -net_.inductors()[static_cast<std::size_t>(l)].henries / dt_ * state[row];
  }
  solve(next);
}

void TransientSim::step() {
  const double t_next = static_cast<double>(steps_ + 1) * dt_;
  for (int s = 0; s < n_src_; ++s) {
    v_next_[static_cast<std::size_t>(s)] = net_.sources()[static_cast<std::size_t>(s)].v(t_next);
  }
  advance(x_, v_next_, next_);

  // Accumulate delivered energies and sourced charge (trapezoid). The
  // delivered current is the negated MNA branch current.
  for (int s = 0; s < n_src_; ++s) {
    const auto k = static_cast<std::size_t>(s);
    const auto row = static_cast<std::size_t>(n_nodes_ + s);
    const double i_old = -x_[row];
    const double i_new = -next_[row];
    src_energy_[k] += 0.5 * (v_src_[k] * i_old + v_next_[k] * i_new) * dt_;
    src_charge_pos_[k] += 0.5 * (std::max(0.0, i_old) + std::max(0.0, i_new)) * dt_;
  }
  x_.swap(next_);
  v_src_.swap(v_next_);
  ++steps_;
}

void TransientSim::run_until(double t_end) {
  while (time() + 0.5 * dt_ < t_end) step();
}

}  // namespace tsvcod::circuit
