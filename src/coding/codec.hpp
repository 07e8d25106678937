#pragma once
// Low-power codec interface (paper Sec. 6: combination with data encoding).
//
// A Codec maps an input word to a (possibly wider) code word each cycle and
// may keep history (correlator, bus-invert). Every codec supports an
// *inversion mask*: the fixed per-line negations demanded by the optimal
// bit-to-TSV assignment are folded into the encoder/decoder (e.g. swapping
// XORs for XNORs in a Gray coder), which is exactly how the paper realizes
// inversions at zero cost.

#include <cstdint>
#include <memory>
#include <span>

#include "streams/word_stream.hpp"

namespace tsvcod::coding {

/// Block-first interface: each codec implements exactly one encode loop and
/// one decode loop over a span of words; the one-word calls are wrappers.
/// `out.size()` must equal `in.size()`. `out` may be `in` itself (in-place),
/// but the two spans must not otherwise overlap. History carries across
/// calls, so any partition of a stream into blocks (empty blocks included)
/// codes identically to word-by-word calls.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::size_t width_in() const = 0;
  virtual std::size_t width_out() const = 0;
  virtual void encode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) = 0;
  virtual void decode_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out) = 0;
  std::uint64_t encode(std::uint64_t word) {
    encode_block({&word, 1}, {&word, 1});
    return word;
  }
  std::uint64_t decode(std::uint64_t code) {
    decode_block({&code, 1}, {&code, 1});
    return code;
  }
  /// Clear any history (returns the codec to its power-on state).
  virtual void reset() = 0;
  /// Deep copy, history included. A transmitter/receiver pair is built by
  /// cloning one configured codec so the two endpoints can never disagree on
  /// parameters (width, period, stride, inversion mask).
  virtual std::unique_ptr<Codec> clone() const = 0;
};

/// Word stream that pushes an inner stream through a codec.
class EncodedStream final : public streams::WordStream {
 public:
  EncodedStream(std::unique_ptr<streams::WordStream> inner, std::unique_ptr<Codec> codec)
      : inner_(std::move(inner)), codec_(std::move(codec)) {
    if (!inner_ || !codec_) throw std::invalid_argument("EncodedStream: null argument");
    if (inner_->width() != codec_->width_in()) {
      throw std::invalid_argument("EncodedStream: stream/codec width mismatch");
    }
  }
  std::size_t width() const override { return codec_->width_out(); }
  std::uint64_t next() override { return codec_->encode(inner_->next()); }

 private:
  std::unique_ptr<streams::WordStream> inner_;
  std::unique_ptr<Codec> codec_;
};

}  // namespace tsvcod::coding
