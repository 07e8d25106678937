#include "core/line_network.hpp"

#include <bit>
#include <span>
#include <vector>

#include "streams/word_stream.hpp"

namespace tsvcod::core {

namespace {

/// Looping algorithm for one Beneš subnetwork on positions [base, base + n):
/// local input j must reach local output dest[j]. The front stage's switch r
/// pairs inputs r and r + n/2, the back stage's switch q pairs outputs q and
/// q + n/2; each pair must be split between the top half (positions
/// [base, base + n/2)) and the bottom half, which are routed recursively by
/// the inner stages. Following the constraint cycle from an unassigned input
/// 2-colours every cycle consistently.
void route(const std::vector<unsigned>& dest, unsigned base, unsigned front,
           std::span<std::uint64_t> masks) {
  const unsigned n = static_cast<unsigned>(dest.size());
  if (n < 2) return;
  const unsigned h = n / 2;
  std::vector<unsigned> src(n);
  for (unsigned j = 0; j < n; ++j) src[dest[j]] = j;

  std::vector<std::uint8_t> bottom(n, 2);  // 0 top, 1 bottom, 2 unassigned
  for (unsigned start = 0; start < h; ++start) {
    for (unsigned j = start; bottom[j] == 2;) {
      bottom[j] = 0;
      const unsigned other = src[dest[j] ^ h];  // shares j's output switch
      bottom[other] = 1;
      j = other ^ h;  // shares other's input switch
    }
  }

  const unsigned back = static_cast<unsigned>(masks.size()) - 1 - front;
  std::vector<unsigned> top_dest(h), bottom_dest(h);
  for (unsigned j = 0; j < n; ++j) {
    (bottom[j] ? bottom_dest : top_dest)[j & (h - 1)] = dest[j] & (h - 1);
  }
  for (unsigned r = 0; r < h; ++r) {
    // Swap inputs r, r+h when r goes to the bottom half; swap outputs q, q+h
    // when output q is fed from the bottom half. For n == 2 the front and
    // back stage coincide and only the back bit can be set (input 0 is
    // always routed to the top).
    if (bottom[r]) masks[front] |= std::uint64_t{1} << (base + r);
    if (bottom[src[r]]) masks[back] |= std::uint64_t{1} << (base + r);
  }
  route(top_dest, base, front + 1, masks);
  route(bottom_dest, base + h, front + 1, masks);
}

}  // namespace

LineNetwork::LineNetwork(const SignedPermutation& assignment)
    : width_mask_(streams::width_mask(assignment.size())) {
  const std::size_t width = assignment.size();
  const unsigned n = std::bit_ceil(static_cast<unsigned>(width < 2 ? 2 : width));
  // An n-position network is the middle 2*log2(n)-1 stages of the
  // 64-position layout.
  levels_ = static_cast<unsigned>(std::countr_zero(n));
  const unsigned front = kMiddle + 1 - levels_;
  std::vector<unsigned> dest(n);
  for (unsigned pos = 0; pos < n; ++pos) {
    dest[pos] = pos < width ? static_cast<unsigned>(assignment.line_of_bit(pos)) : pos;
    if (pos < width && assignment.inverted(pos)) invert_ |= std::uint64_t{1} << pos;
  }
  route(dest, 0, front, masks_);
}

}  // namespace tsvcod::core
