#include "coding/gray.hpp"

#include <stdexcept>

namespace tsvcod::coding {

GrayCodec::GrayCodec(std::size_t width, std::uint64_t inversion_mask)
    : width_(width), mask_(inversion_mask & streams::width_mask(width)) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("GrayCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
}

std::uint64_t GrayCodec::binary_to_gray(std::uint64_t b) { return b ^ (b >> 1); }

std::uint64_t GrayCodec::gray_to_binary(std::uint64_t g, std::size_t width) {
  // Bit i of the binary value is the XOR of Gray bits i..width-1: a suffix
  // parity, built in log2(64) doubling steps.
  std::uint64_t b = g & streams::width_mask(width);
  b ^= b >> 1;
  b ^= b >> 2;
  b ^= b >> 4;
  b ^= b >> 8;
  b ^= b >> 16;
  b ^= b >> 32;
  return b;
}

void GrayCodec::encode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = binary_to_gray(in[i] & mask) ^ mask_;
}

void GrayCodec::decode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = gray_to_binary(in[i] ^ mask_, width_);
}

}  // namespace tsvcod::coding
