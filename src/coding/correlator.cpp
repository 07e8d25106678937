#include "coding/correlator.hpp"

#include <stdexcept>

namespace tsvcod::coding {

CorrelatorCodec::CorrelatorCodec(std::size_t width, std::size_t period,
                                 std::uint64_t inversion_mask)
    : width_(width),
      period_(period),
      mask_(inversion_mask & streams::width_mask(width)),
      enc_history_(period, 0),
      dec_history_(period, 0) {
  if (width == 0 || width > kMaxWidth) {
    throw std::invalid_argument("CorrelatorCodec: width " + std::to_string(width) +
                                " out of range [1, " + std::to_string(kMaxWidth) + "]");
  }
  if (period == 0) throw std::invalid_argument("CorrelatorCodec: period must be > 0");
}

void CorrelatorCodec::encode_block(std::span<const std::uint64_t> in,
                                   std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t word = in[i] & mask;
    out[i] = word ^ enc_history_[enc_pos_] ^ mask_;
    enc_history_[enc_pos_] = word;
    if (++enc_pos_ == period_) enc_pos_ = 0;
  }
}

void CorrelatorCodec::decode_block(std::span<const std::uint64_t> in,
                                   std::span<std::uint64_t> out) {
  const std::uint64_t mask = streams::width_mask(width_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t word = (in[i] ^ mask_ ^ dec_history_[dec_pos_]) & mask;
    dec_history_[dec_pos_] = word;
    if (++dec_pos_ == period_) dec_pos_ = 0;
    out[i] = word;
  }
}

void CorrelatorCodec::reset() {
  enc_history_.assign(period_, 0);
  dec_history_.assign(period_, 0);
  enc_pos_ = dec_pos_ = 0;
}

}  // namespace tsvcod::coding
