#include "core/coded_link.hpp"

#include <stdexcept>
#include <string>

#include "obs/profile.hpp"

namespace tsvcod::core {

CodedLink::CodedLink(SignedPermutation assignment, std::unique_ptr<coding::Codec> codec)
    : assignment_(std::move(assignment)), net_(assignment_), tx_(std::move(codec)) {
  if (!tx_) throw std::invalid_argument("CodedLink: null codec");
  if (assignment_.size() != tx_->width_out()) {
    throw std::invalid_argument("CodedLink: assignment size " +
                                std::to_string(assignment_.size()) +
                                " does not match codec output width " +
                                std::to_string(tx_->width_out()));
  }
  // Both endpoints must start from the power-on state regardless of any
  // traffic the caller already pushed through the prototype.
  tx_->reset();
  rx_ = tx_->clone();
}

std::uint64_t CodedLink::transmit(std::uint64_t word) {
  return net_.apply(tx_->encode(word));
}

std::uint64_t CodedLink::receive(std::uint64_t lines) {
  return rx_->decode(net_.unapply(lines));
}

std::uint64_t CodedLink::roundtrip(std::uint64_t word) {
  return rx_->decode(net_.unapply(net_.apply(tx_->encode(word))));
}

void CodedLink::roundtrip_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) {
  if (out.size() != in.size()) {
    throw std::invalid_argument("CodedLink::roundtrip_block: output size " +
                                std::to_string(out.size()) + " does not match input size " +
                                std::to_string(in.size()));
  }
  obs::Span span("coding.roundtrip");
  obs::profile_work("words", in.size());
  tx_->encode_block(in, out);
  net_.roundtrip(out);
  rx_->decode_block(out, out);
}

void CodedLink::reset() {
  tx_->reset();
  rx_->reset();
}

void CodedLink::reset(SignedPermutation next) {
  if (next.size() != assignment_.size()) {
    throw std::invalid_argument("CodedLink::reset: new assignment size " +
                                std::to_string(next.size()) + " does not match line width " +
                                std::to_string(assignment_.size()));
  }
  net_ = LineNetwork(next);
  assignment_ = std::move(next);
  tx_->reset();
  rx_->reset();
}

}  // namespace tsvcod::core
