#include "coding/bus_invert.hpp"

#include <bit>
#include <stdexcept>

namespace tsvcod::coding {

namespace {

/// Shared decoder of the bus-invert family: the flag line `width` says
/// whether the data lines were sent complemented.
void decode_invert_flag(std::size_t width, std::span<const std::uint64_t> in,
                        std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t data = in[i] & mask;
    out[i] = (in[i] >> width) & 1u ? ~data & mask : data;
  }
}

}  // namespace

BusInvertCodec::BusInvertCodec(std::size_t width) : width_(width) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("BusInvertCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the invert flag occupies one extra line)");
  }
}

void BusInvertCodec::encode_block(std::span<const std::uint64_t> in,
                                  std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t word = in[i] & mask;
    const bool invert = std::popcount(word ^ prev_out_) > static_cast<int>(width_) / 2;
    prev_out_ = invert ? ~word & mask : word;
    out[i] = prev_out_ | (static_cast<std::uint64_t>(invert) << width_);
  }
}

void BusInvertCodec::decode_block(std::span<const std::uint64_t> in,
                                  std::span<std::uint64_t> out) {
  decode_invert_flag(width_, in, out);
}

void BusInvertCodec::reset() { prev_out_ = 0; }

CouplingInvertCodec::CouplingInvertCodec(std::size_t width, double lambda)
    : width_(width), lambda_(lambda) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("CouplingInvertCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the invert flag occupies one extra line)");
  }
  if (lambda < 0.0) throw std::invalid_argument("CouplingInvertCodec: lambda must be >= 0");
}

double CouplingInvertCodec::transition_cost(std::uint64_t from, std::uint64_t to) const {
  const std::size_t lines = width_ + 1;  // data + flag, laid out side by side
  double cost = 0.0;
  int prev_db = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const int db = static_cast<int>((to >> i) & 1u) - static_cast<int>((from >> i) & 1u);
    cost += static_cast<double>(db * db);
    if (i > 0) {
      const int d = db - prev_db;
      cost += lambda_ * static_cast<double>(d * d);
    }
    prev_db = db;
  }
  return cost;
}

void CouplingInvertCodec::encode_block(std::span<const std::uint64_t> in,
                                       std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t plain = in[i] & mask;
    const std::uint64_t flipped = (~plain & mask) | (std::uint64_t{1} << width_);
    prev_code_ =
        transition_cost(prev_code_, flipped) < transition_cost(prev_code_, plain) ? flipped : plain;
    out[i] = prev_code_;
  }
}

void CouplingInvertCodec::decode_block(std::span<const std::uint64_t> in,
                                       std::span<std::uint64_t> out) {
  decode_invert_flag(width_, in, out);
}

void CouplingInvertCodec::reset() { prev_code_ = 0; }

}  // namespace tsvcod::coding
