#pragma once
// End-to-end coded transmission over an assigned TSV array.
//
// The paper's full chain is  encode -> assign -> TSV lines -> unassign ->
// decode; decodability of that chain is the correctness half of its central
// claim. Before this class existed, every bench and example wired the chain
// by hand from two independently constructed codec objects — and a stateful
// pair (bus-invert prev-word, correlator/T0 histories) silently desyncs if
// only one endpoint is ever reset. CodedLink owns both endpoints, builds the
// receiver by cloning the transmitter (parameters can never disagree), and
// propagates reset() to both sides atomically: there is no API to reset one
// endpoint without the other.
//
// The assignment is compiled into a LineNetwork (core/line_network.hpp) at
// construction and at every reset(next); the per-word path and the block
// path both place words on the lines through it.
//
// Thread safety: none inside the link. Calls on one link are serialized by
// its owner (serve::Session holds its session mutex around every call), so a
// reset, including the assignment hot-swap overload, lands between whole
// roundtrip() / roundtrip_block() calls and never splits the tx/rx pair. One
// exception: transmit() touches only the transmitter endpoint and receive()
// only the receiver, so the two may run on two threads at once while no
// reset runs (the NoC's sender and receiver ranks, see noc/simulator.hpp).

#include <cstdint>
#include <memory>
#include <span>

#include "coding/codec.hpp"
#include "core/assignment.hpp"
#include "core/line_network.hpp"

namespace tsvcod::core {

class CodedLink {
 public:
  /// `assignment` maps the codec's output lines to TSVs; its size must equal
  /// the codec's output width. The receiver endpoint is a clone of `codec`
  /// taken before any traffic, so both endpoints start in the power-on state.
  CodedLink(SignedPermutation assignment, std::unique_ptr<coding::Codec> codec);

  std::size_t payload_width() const { return tx_->width_in(); }
  std::size_t line_width() const { return assignment_.size(); }

  /// The live assignment; replaced by reset(next).
  const SignedPermutation& assignment() const { return assignment_; }

  /// Transmitter side: encode a payload word and place it on the TSV lines.
  std::uint64_t transmit(std::uint64_t word);
  /// Receiver side: recover the payload word from the TSV line word.
  std::uint64_t receive(std::uint64_t lines);
  /// Full chain; equals the input for every codec when both endpoints stay
  /// in sync (the harness' first oracle).
  std::uint64_t roundtrip(std::uint64_t word);
  /// roundtrip() over a block: out[i] is the received word for in[i].
  /// `out.size()` must equal `in.size()`; `out` may be `in`. Equals per-word
  /// roundtrip() calls for any block partition.
  void roundtrip_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out);

  /// Atomic pair reset: both endpoints return to the power-on state in one
  /// call. Resetting a single endpoint of a stateful pair desyncs the link;
  /// tests that need to *demonstrate* that failure mode use the endpoint
  /// accessors below.
  void reset();

  /// Hot-swap: install `next` as the live assignment AND reset both
  /// endpoints in one call, so every word is encoded, assigned, unassigned
  /// and decoded under exactly one assignment and one consistent pair state
  /// and the swap causes zero decode desyncs. `next.size()` must equal the
  /// current line width.
  void reset(SignedPermutation next);

  /// Endpoint access for desync experiments and statistics probes. Resetting
  /// through these bypasses the atomicity guarantee on purpose.
  coding::Codec& transmitter() { return *tx_; }
  coding::Codec& receiver() { return *rx_; }

 private:
  SignedPermutation assignment_;
  LineNetwork net_;  ///< assignment_ compiled; rebuilt with it
  std::unique_ptr<coding::Codec> tx_;
  std::unique_ptr<coding::Codec> rx_;
};

}  // namespace tsvcod::core
