#include "circuit/tsv_link_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "circuit/transient.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "phys/constants.hpp"

namespace tsvcod::circuit {

namespace {

/// Clock period of a link simulation after validating its inputs.
double checked_period(std::span<const std::uint64_t> line_words, const DriverParams& driver,
                      const SimOptions& options) {
  if (line_words.size() < 2) throw std::invalid_argument("simulate_link: need >= 2 words");
  const double period = 1.0 / options.frequency;
  if (!(period > 0.0) || !std::isfinite(period) || options.steps_per_cycle < 1) {
    throw std::invalid_argument(
        "simulate_link: need a positive frequency and steps_per_cycle >= 1");
  }
  if (!(driver.rise_time >= 0.0) || driver.rise_time >= period) {
    throw std::invalid_argument("simulate_link: need 0 <= rise_time < clock period");
  }
  return period;
}

/// `base` raised to `exponent` >= 1 by repeated squaring.
phys::Matrix matrix_power(phys::Matrix base, int exponent) {
  phys::Matrix result = phys::Matrix::identity(base.rows());
  for (;;) {
    if (exponent & 1) result = result * base;
    exponent >>= 1;
    if (exponent == 0) return result;
    base = base * base;
  }
}

/// One clock cycle of the link's backward-Euler step loop as one affine map
/// (DESIGN §5m). Within a cycle each driver's waveform is fixed by its
/// line's previous bit b and change Δb: v_j = vdd·(b + Δb·ramp(j·dt)) at
/// step j = 1..steps. The state after the cycle and the cycle's trapezoid
/// supply energy are then
///
///   x' = Φ·x + P·b + D·Δb,     E = Σ_i b_i·u_i + Δb_i·v_i,
///
/// with u and v linear in z = (x, b, Δb). K maps z to (x', u, v); it is
/// stored column by column, so a cycle is one mat-vec that skips the zero
/// entries of b and Δb.
class CyclePropagator {
 public:
  CyclePropagator(const TransientSim& sim, std::span<const int> source_ids, int steps, double dt,
                  double rise, double vdd);

  /// Run the cycle that moves the lines from `prev` to `word`; returns the
  /// supply energy it draws.
  double cycle(std::uint64_t prev, std::uint64_t word);

 private:
  std::size_t n_;
  std::size_t live_ = 0;     ///< state entries K keeps (see the constructor)
  std::vector<double> k_;    ///< (live + 2n)² matrix K, column-major
  std::vector<double> z_;    ///< (x, b, Δb) of the cycle in flight
  std::vector<double> out_;  ///< (x', u, v)
};

CyclePropagator::CyclePropagator(const TransientSim& sim, std::span<const int> source_ids,
                                 int steps, double dt, double rise, double vdd)
    : n_(source_ids.size()) {
  const std::size_t d = sim.state_size();
  const std::size_t n = n_;

  // One step is x' = A·x + B·v. Read A and B (at vdd per line) off the
  // simulator's own factorized step.
  phys::Matrix a(d, d), b(d, n);
  {
    std::vector<double> state(d, 0.0), volts(n, 0.0), next(d);
    for (std::size_t c = 0; c < d; ++c) {
      state[c] = 1.0;
      sim.advance(state, volts, next);
      state[c] = 0.0;
      for (std::size_t r = 0; r < d; ++r) a(r, c) = next[r];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::size_t>(source_ids[i]);
      volts[id] = vdd;
      sim.advance(state, volts, next);
      volts[id] = 0.0;
      for (std::size_t r = 0; r < d; ++r) b(r, i) = next[r];
    }
  }
  std::vector<std::size_t> src_row(n);
  for (std::size_t i = 0; i < n; ++i) src_row[i] = sim.source_state_index(source_ids[i]);

  // Walk the cycle's steps j = 0..steps. The input response Q_j = [P_j D_j]
  // follows Q_j = A·Q_{j-1} + [B  r_j·B]; the source rows of A^j follow
  // R_j = R_{j-1}·A. Step j contributes w_j·v_j·i_j to each source's energy,
  // where i_j = -(R_j·x + Q_j[src]·(b, Δb)) and w_j is the trapezoid weight.
  phys::Matrix q(d, 2 * n), r(n, d);
  for (std::size_t i = 0; i < n; ++i) r(i, src_row[i]) = 1.0;
  phys::Matrix w(2 * n, d + 2 * n);  // rows: u (times b), then v (times Δb)
  for (int j = 0; j <= steps; ++j) {
    const double ramp =
        j == 0 ? 0.0 : (rise <= 0.0 || j * dt >= rise ? 1.0 : j * dt / rise);
    if (j > 0) {
      q = a * q;
      r = r * a;
      for (std::size_t row = 0; row < d; ++row) {
        for (std::size_t i = 0; i < n; ++i) {
          q(row, i) += b(row, i);
          q(row, n + i) += ramp * b(row, i);
        }
      }
    }
    const double weight = -vdd * dt * (j == 0 || j == steps ? 0.5 : 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        w(i, c) += weight * r(i, c);
        w(n + i, c) += weight * ramp * r(i, c);
      }
      for (std::size_t c = 0; c < 2 * n; ++c) {
        w(i, d + c) += weight * q(src_row[i], c);
        w(n + i, d + c) += weight * ramp * q(src_row[i], c);
      }
    }
  }

  const phys::Matrix phi = matrix_power(a, steps);
  // A state entry whose column of K is zero (the voltage of a node without
  // a capacitor, ...) reaches neither x' nor the energy: keep only the live
  // ones, in rows and columns alike.
  std::vector<std::size_t> live;
  for (std::size_t c = 0; c < d; ++c) {
    bool used = false;
    for (std::size_t row = 0; row < d && !used; ++row) used = phi(row, c) != 0.0;
    for (std::size_t row = 0; row < 2 * n && !used; ++row) used = w(row, c) != 0.0;
    if (used) live.push_back(c);
  }
  live_ = live.size();
  const std::size_t mk = live_ + 2 * n;
  k_.resize(mk * mk);
  for (std::size_t c = 0; c < mk; ++c) {
    const bool state_col = c < live_;
    const std::size_t from = state_col ? live[c] : d + (c - live_);
    double* col = &k_[c * mk];
    for (std::size_t row = 0; row < live_; ++row) {
      col[row] = state_col ? phi(live[row], from) : q(live[row], from - d);
    }
    for (std::size_t row = 0; row < 2 * n; ++row) col[live_ + row] = w(row, from);
  }
  z_.assign(mk, 0.0);
  out_.assign(mk, 0.0);
}

double CyclePropagator::cycle(std::uint64_t prev, std::uint64_t word) {
  const std::size_t l = live_;
  const std::size_t n = n_;
  const std::size_t m = l + 2 * n;
  for (std::size_t i = 0; i < n; ++i) {
    const auto from = static_cast<double>((prev >> i) & 1u);
    z_[l + i] = from;
    z_[l + n + i] = static_cast<double>((word >> i) & 1u) - from;
  }
  std::fill(out_.begin(), out_.end(), 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    const double zc = z_[c];
    if (zc == 0.0) continue;
    const double* col = &k_[c * m];
    for (std::size_t row = 0; row < m; ++row) out_[row] += zc * col[row];
  }
  double energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    energy += z_[l + i] * out_[l + i] + z_[l + n + i] * out_[l + n + i];
  }
  std::copy(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(l), z_.begin());
  return energy;
}

}  // namespace

double tsv_resistance(const phys::TsvArrayGeometry& geom) {
  return phys::rho_cu * geom.length / (phys::pi * geom.radius * geom.radius);
}

double tsv_inductance(const phys::TsvArrayGeometry& geom) {
  // Partial self-inductance of a cylindrical conductor.
  constexpr double mu0 = 4.0e-7 * phys::pi;
  const double l = geom.length;
  const double r = geom.radius;
  return mu0 * l / (2.0 * phys::pi) * (std::log(2.0 * l / r) - 0.75);
}

LinkNetlist build_link_netlist(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                               std::span<const Waveform> line_waveforms,
                               const DriverParams& driver, const SimOptions& options) {
  geom.validate();
  const std::size_t n = geom.count();
  if (cap.rows() != n || cap.cols() != n) {
    throw std::invalid_argument("build_link_netlist: capacitance matrix size mismatch");
  }
  if (line_waveforms.size() != n) {
    throw std::invalid_argument("build_link_netlist: one waveform per TSV required");
  }
  if (options.segments < 1) throw std::invalid_argument("build_link_netlist: segments >= 1");

  const int seg = options.segments;
  const double r_seg = tsv_resistance(geom) / seg;
  const double l_seg = tsv_inductance(geom) / seg;

  // Shunt weights of the pi ladder: 1/(2*seg) at the two end nodes, 1/seg at
  // the internal ones (for seg = 3: 1/6, 1/3, 1/3, 1/6).
  std::vector<double> shunt(static_cast<std::size_t>(seg) + 1, 1.0 / seg);
  shunt.front() = shunt.back() = 0.5 / seg;

  LinkNetlist link;
  Netlist& net = link.net;
  std::vector<int> src_node(n);
  std::vector<std::vector<int>> ladder(n, std::vector<int>(static_cast<std::size_t>(seg) + 1));
  for (std::size_t i = 0; i < n; ++i) {
    src_node[i] = net.add_node();
    for (int k = 0; k <= seg; ++k) ladder[i][static_cast<std::size_t>(k)] = net.add_node();
  }

  link.source_ids.resize(n);
  link.receiver_nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    link.source_ids[i] = net.vsource(src_node[i], Netlist::kGround, line_waveforms[i]);
    link.receiver_nodes[i] = ladder[i].back();
    net.resistor(src_node[i], ladder[i].front(), driver.resistance);
    net.capacitor(ladder[i].back(), Netlist::kGround, driver.receiver_cap);
    for (int k = 0; k < seg; ++k) {
      const int a = ladder[i][static_cast<std::size_t>(k)];
      const int b = ladder[i][static_cast<std::size_t>(k) + 1];
      if (options.with_inductance) {
        const int mid = net.add_node();
        net.resistor(a, mid, r_seg);
        net.inductor(mid, b, l_seg);
      } else {
        net.resistor(a, b, r_seg);
      }
    }
  }

  // Distributed ground and coupling capacitances along the ladder.
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k <= seg; ++k) {
      const double w = shunt[static_cast<std::size_t>(k)];
      if (cap(i, i) > 0.0) {
        net.capacitor(ladder[i][static_cast<std::size_t>(k)], Netlist::kGround, cap(i, i) * w);
      }
      for (std::size_t j = i + 1; j < n; ++j) {
        if (cap(i, j) > 0.0) {
          net.capacitor(ladder[i][static_cast<std::size_t>(k)],
                        ladder[j][static_cast<std::size_t>(k)], cap(i, j) * w);
        }
      }
    }
  }
  return link;
}

LinkSimResult simulate_link(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                            std::span<const std::uint64_t> line_words,
                            const DriverParams& driver, const SimOptions& options) {
  obs::Span span("circuit.simulate");
  const double period = checked_period(line_words, driver, options);
  const std::size_t n = geom.count();

  // The propagator supplies the driver voltages itself; the netlist's
  // waveforms only hold the source slots.
  const std::vector<Waveform> idle(n, dc(0.0));
  const LinkNetlist link = build_link_netlist(geom, cap, idle, driver, options);
  const double dt = period / options.steps_per_cycle;
  const TransientSim sim(link.net, dt);
  CyclePropagator propagator(sim, link.source_ids, options.steps_per_cycle, dt,
                             driver.rise_time, driver.vdd);

  LinkSimResult out;
  out.cycles = line_words.size();
  // Net supply energy: the driver sources sit at the rail voltages except
  // during the short (5 ps default) edges, so the signed integral of v*i of
  // each source is the energy its rail delivers. Rectified (charge-based)
  // metering would double-bill static-victim crosstalk, whose bounce charge
  // physically returns to the rail. The lines idle at 0 before the first word.
  std::uint64_t prev = 0;
  for (const std::uint64_t word : line_words) {
    out.dynamic_energy += propagator.cycle(prev, word);
    prev = word;
  }
  obs::profile_work("cycles", line_words.size());
  const double t_end = period * static_cast<double>(line_words.size());
  out.dynamic_power = out.dynamic_energy / t_end;
  out.leakage_power = static_cast<double>(n) * driver.leakage_current * driver.vdd;
  return out;
}

LinkSimResult simulate_link_stepwise(const phys::TsvArrayGeometry& geom, const phys::Matrix& cap,
                                     std::span<const std::uint64_t> line_words,
                                     const DriverParams& driver, const SimOptions& options) {
  const double period = checked_period(line_words, driver, options);
  const std::size_t n = geom.count();
  std::vector<Waveform> waves;
  waves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> bits(line_words.size());
    for (std::size_t t = 0; t < line_words.size(); ++t) {
      bits[t] = static_cast<std::uint8_t>((line_words[t] >> i) & 1u);
    }
    waves.push_back(bit_waveform(std::move(bits), period, driver.rise_time, driver.vdd));
  }
  const LinkNetlist link = build_link_netlist(geom, cap, waves, driver, options);
  TransientSim sim(link.net, period / options.steps_per_cycle);
  const double t_end = period * static_cast<double>(line_words.size());
  sim.run_until(t_end);

  LinkSimResult out;
  out.cycles = line_words.size();
  for (const int id : link.source_ids) out.dynamic_energy += sim.source_energy(id);
  out.dynamic_power = out.dynamic_energy / t_end;
  out.leakage_power = static_cast<double>(n) * driver.leakage_current * driver.vdd;
  return out;
}

}  // namespace tsvcod::circuit
