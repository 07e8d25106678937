#pragma once
// A signed bit-to-TSV assignment compiled into straight-line word operations.
//
// SignedPermutation::apply_word walks the bits one at a time (up to 64
// shift/or steps per word). On chip the assignment is wiring plus XNORs folded
// into the codec; LineNetwork is the software counterpart: the permutation is
// routed once into a Beneš network of delta swaps (Hacker's Delight §7-8),
//
//     t = ((x >> s) ^ x) & m;  x ^= t ^ (t << s);
//
// which exchanges bit i with bit i+s wherever m has bit i set. A Beneš
// network on N = 2^k positions has 2k-1 such stages with shifts N/2, ..., 2,
// 1, 2, ..., N/2. Every stage is an involution, so the inverse transform runs
// the same stages in reverse order. The permutation is routed on the
// smallest power of two >= the line width, whose stages are the middle ones
// of the 64-position layout (shifts 32, 16, ..., 1, ..., 16, 32); only those
// run, unrolled with constant shifts (5 stages at w <= 8, 11 at w > 32).
// Inversions are one XOR mask on the bit side.
//
// The network is a snapshot: it does not follow later swap_bits /
// toggle_inversion calls on the permutation it was built from. Both
// transforms mask their input to the width first, so stray high bits are
// ignored exactly as apply_word / unapply_word ignore them.

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/assignment.hpp"

namespace tsvcod::core {

class LineNetwork {
 public:
  /// Route `assignment`; apply/unapply are then bit-identical to
  /// assignment.apply_word / unapply_word.
  explicit LineNetwork(const SignedPermutation& assignment);

  /// Data word -> line word (permute + invert).
  std::uint64_t apply(std::uint64_t word) const {
    return by_levels([&](auto levels) { return apply_n<levels>(word); });
  }

  /// Line word -> data word; inverse of apply within the width.
  std::uint64_t unapply(std::uint64_t lines) const {
    return by_levels([&](auto levels) { return unapply_n<levels>(lines); });
  }

  /// words[i] = unapply(apply(words[i])): every word onto the lines and back
  /// off. The width dispatch runs once per block, not once per word.
  void roundtrip(std::span<std::uint64_t> words) const {
    const LineNetwork net = *this;  // a local copy cannot alias `words`
    net.by_levels([&](auto levels) {
      for (std::uint64_t& w : words) w = net.unapply_n<levels>(net.apply_n<levels>(w));
    });
  }

 private:
  static constexpr unsigned kStages = 11;  ///< Beneš stages for 64 positions
  static constexpr unsigned kMiddle = kStages / 2;

  /// Calls f(std::integral_constant<unsigned, levels_>).
  template <class F>
  auto by_levels(F&& f) const -> decltype(f(std::integral_constant<unsigned, 6>{})) {
    switch (levels_) {
      case 1: return f(std::integral_constant<unsigned, 1>{});
      case 2: return f(std::integral_constant<unsigned, 2>{});
      case 3: return f(std::integral_constant<unsigned, 3>{});
      case 4: return f(std::integral_constant<unsigned, 4>{});
      case 5: return f(std::integral_constant<unsigned, 5>{});
      default: return f(std::integral_constant<unsigned, 6>{});
    }
  }

  // A network on 2^Levels positions is the 2*Levels-1 middle stages.
  template <unsigned Levels>
  std::uint64_t apply_n(std::uint64_t x) const {
    x = (x & width_mask_) ^ invert_;
#pragma GCC unroll 11
    for (unsigned k = kMiddle + 1 - Levels; k < kMiddle + Levels; ++k) x = delta_swap(x, k);
    return x;
  }
  template <unsigned Levels>
  std::uint64_t unapply_n(std::uint64_t x) const {
    x &= width_mask_;
#pragma GCC unroll 11
    for (unsigned k = 0; k < 2 * Levels - 1; ++k) x = delta_swap(x, kMiddle + Levels - 1 - k);
    return x ^ invert_;
  }

  static constexpr unsigned shift_of(unsigned stage) {
    return 1u << (stage > kMiddle ? stage - kMiddle : kMiddle - stage);
  }
  std::uint64_t delta_swap(std::uint64_t x, unsigned stage) const {
    const unsigned s = shift_of(stage);
    const std::uint64_t t = ((x >> s) ^ x) & masks_[stage];
    return x ^ t ^ (t << s);
  }

  std::array<std::uint64_t, kStages> masks_{};  ///< unused outer stages stay 0
  std::uint64_t width_mask_ = 0;
  std::uint64_t invert_ = 0;  ///< inverted data bits
  unsigned levels_ = 1;       ///< log2 of the routed size, 1..6
};

}  // namespace tsvcod::core
