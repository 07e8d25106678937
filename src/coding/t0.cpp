#include "coding/t0.hpp"

#include <stdexcept>

namespace tsvcod::coding {

T0Codec::T0Codec(std::size_t width, std::uint64_t stride) : width_(width), stride_(stride) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("T0Codec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) +
                                "] (the INC flag occupies one extra line)");
  }
  if (stride == 0) throw std::invalid_argument("T0Codec: stride must be nonzero");
}

void T0Codec::encode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  const std::uint64_t inc_bit = std::uint64_t{1} << width_;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t word = in[i] & mask;
    const bool in_sequence = enc_primed_ && word == ((enc_last_value_ + stride_) & mask);
    enc_last_value_ = word;
    enc_primed_ = true;
    if (in_sequence) {
      out[i] = enc_frozen_lines_ | inc_bit;  // data lines frozen, INC set
    } else {
      enc_frozen_lines_ = word;
      out[i] = word;
    }
  }
}

void T0Codec::decode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if ((in[i] >> width_) & 1u) {
      if (!dec_primed_) throw std::logic_error("T0Codec: INC before any absolute value");
      dec_last_value_ = (dec_last_value_ + stride_) & mask;
    } else {
      dec_last_value_ = in[i] & mask;
    }
    dec_primed_ = true;
    out[i] = dec_last_value_;
  }
}

void T0Codec::reset() {
  enc_primed_ = dec_primed_ = false;
  enc_last_value_ = dec_last_value_ = 0;
  enc_frozen_lines_ = 0;
}

}  // namespace tsvcod::coding
