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
// Thread safety: transmit / receive / roundtrip / roundtrip_block / reset are
// serialized by an internal mutex. roundtrip_block() takes the lock once per
// block and holds it across the whole encode -> lines -> decode chain of
// every word in it, so a reset (including the assignment hot-swap overload)
// lands between blocks and therefore between whole words — never between a
// word's encode and decode, never splitting the tx/rx pair. That is the swap
// mechanism the streaming service (src/serve) relies on, and interleaved
// calls from several threads keep the endpoint histories in lockstep.

#include <cstdint>
#include <memory>
#include <mutex>
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

  /// The live assignment. Only stable while no concurrent reset(next) can
  /// run; concurrent readers should take assignment_snapshot() instead.
  const SignedPermutation& assignment() const { return assignment_; }
  /// Copy of the live assignment, taken under the link lock.
  SignedPermutation assignment_snapshot() const;

  /// Transmitter side: encode a payload word and place it on the TSV lines.
  std::uint64_t transmit(std::uint64_t word);
  /// Receiver side: recover the payload word from the TSV line word.
  std::uint64_t receive(std::uint64_t lines);
  /// Full chain; equals the input for every codec when both endpoints stay
  /// in sync (the harness' first oracle). Atomic: the encode and decode
  /// halves happen under one lock acquisition, so a concurrent reset can
  /// never land between them.
  std::uint64_t roundtrip(std::uint64_t word);
  /// roundtrip() over a block: out[i] is the received word for in[i].
  /// `out.size()` must equal `in.size()`; `out` may be `in`. One lock
  /// acquisition for the whole block, so a concurrent reset lands before or
  /// after it. Equals per-word roundtrip() calls for any block partition.
  void roundtrip_block(std::span<const std::uint64_t> in, std::span<std::uint64_t> out);

  /// Atomic pair reset: both endpoints return to the power-on state in one
  /// call. Resetting a single endpoint of a stateful pair desyncs the link;
  /// tests that need to *demonstrate* that failure mode use the endpoint
  /// accessors below.
  void reset();

  /// Atomic hot-swap: install `next` as the live assignment AND reset both
  /// endpoints, all inside one critical section. Traffic running
  /// concurrently through roundtrip() observes a clean cut — every word is
  /// encoded, assigned, unassigned and decoded under exactly one assignment
  /// and one consistent pair state, so the swap causes zero decode desyncs.
  /// `next.size()` must equal the current line width.
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
  // unique_ptr keeps the link movable (std::mutex is not); never null.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
};

}  // namespace tsvcod::core
