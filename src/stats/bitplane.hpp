#pragma once
// Block-transposed integer switching-statistics kernel (paper Sec. 3, Eq. 1-3).
//
// The scalar accumulator walks every line pair per word: O(w^2) double adds,
// ~4k FP ops per word at w = 64. This kernel instead buffers 64 consecutive
// transitions, transposes them into per-line *bit planes* (a Hacker's-Delight
// 64x64 bit-matrix transpose), and reduces each quantity with popcounts over
// whole planes:
//
//   plane layout   TG_i  bit t = "line i toggled on transition t"
//                  VAL_i bit t = "line i is 1 after transition t"
//   per line       self_i += popcount(TG_i)
//                  ones_i += popcount(VAL_i)
//   per pair       both = TG_i & TG_j                        (both toggled)
//                  opp  = both & (VAL_i ^ VAL_j)             (opposite dirs)
//                  cross_ij += popcount(both) - 2*popcount(opp)
//
// The pair identity holds because db_i * db_j is +1 when both lines toggle
// the same way, -1 when they toggle opposite ways, and 0 otherwise — and for
// a toggled line the direction is exactly its new value (VAL bit). That turns
// 64 * w^2 / 2 floating-point multiply-adds per block into ~3 integer ops per
// pair per block, with an early skip for quiet lines (TG_i == 0).
//
// All counters are unsigned/signed 64-bit integers. The scalar accumulator's
// double counters only ever receive +-1.0 increments, so its sums are exact
// integers too; converting our integer sums to double and performing the
// same final divisions therefore reproduces the scalar results *bit for
// bit* (and stays exact past the 2^53 limit where doubles would start to
// round). Exact integer counts also make merging associative, which is what
// `compute_counts` exploits to chunk a trace across the shared thread pool
// (chunks overlap one word at the seam so transitions partition exactly) and
// what lets `ChunkFolder`'s tumbling windows merge back to the whole stream,
// with results that are bit-identical at every thread count and partition.

#include <cstdint>
#include <span>
#include <vector>

#include "stats/switching_types.hpp"

namespace tsvcod::stats {

/// In-place 64x64 bit-matrix transpose in LSB-first coordinates:
/// after the call, bit t of a[i] equals bit i of the original a[t].
void transpose64(std::uint64_t a[64]);

/// Exact integer switching counts of a (chunk of a) word trace. Merging is
/// plain integer addition, hence associative and order-independent.
struct SwitchingCounts {
  std::size_t width = 0;
  std::uint64_t words = 0;        ///< words whose bits were counted into `ones`
  std::uint64_t transitions = 0;  ///< word-to-word transitions counted
  std::vector<std::uint64_t> ones;   ///< count of 1 bits per line
  std::vector<std::uint64_t> self;   ///< count of toggles per line
  std::vector<std::int64_t> cross;   ///< sum of db_i*db_j, row-major w*w, used for i < j

  SwitchingCounts() = default;
  explicit SwitchingCounts(std::size_t width);

  std::int64_t& at(std::size_t i, std::size_t j) { return cross[i * width + j]; }
  std::int64_t at(std::size_t i, std::size_t j) const { return cross[i * width + j]; }

  /// Accumulate `other` into this (exact integer adds; widths must match).
  void merge(const SwitchingCounts& other);

  /// Divide counts into probabilities (Eq. 1-3 estimates). Needs >= 2 words;
  /// the error names the width and sample count.
  SwitchingStats finalize() const;
};

/// The one streaming switching-statistics accumulator. fold() takes chunks
/// of any size (0, 1, 2, ... words; a per-word caller passes a one-word
/// span) and the counts are bit-identical to one-shot compute_counts of the
/// concatenated words, at every chunk partition.
///
/// Transitions are staged in a 64-word block and flushed through the
/// transposed popcount reduction; a chunk that reaches a block boundary with
/// >= 64 words left is reduced straight from the caller's buffer (no copy at
/// width 64), which is what the zero-copy mmap ingestion path rides on.
/// Whatever is still staged is folded in by a scalar tail path when counts()
/// is called, so partial blocks and short (< 64 word) streams are exact too.
///
/// Seam-chain invariant: the last word folded is the seam. The next word
/// forms a transition with it, and its one-bits are owned by the window that
/// folded it. An empty chunk leaves the seam untouched; reset_window() keeps
/// it (without its ownership); only reset() forgets it.
class ChunkFolder {
 public:
  explicit ChunkFolder(std::size_t width);

  std::size_t width() const { return width_; }

  /// Fold the next chunk of the stream.
  void fold(std::span<const std::uint64_t> chunk);

  /// Counts of everything folded since the last reset / window reset
  /// (flushed blocks + the staged scalar tail). Exact; mergeable.
  SwitchingCounts counts() const;

  /// finalize()d counts; needs >= 2 words folded since the last reset.
  SwitchingStats stats() const { return counts().finalize(); }

  /// Words folded since construction / the last reset or window reset.
  std::uint64_t words() const { return words_; }

  /// Full reset: counts cleared AND the seam forgotten (the next word starts
  /// a fresh stream).
  void reset();

  /// Start a new counting window while *continuing* the stream: the counts
  /// are cleared but the seam is carried over, so the next window's first
  /// word still forms a transition with this window's last word. Tumbling
  /// windows produced this way merge back to the exact whole-stream counts.
  /// No-op before the first word.
  void reset_window();

 private:
  void fold_word(std::uint64_t word);
  void flush_from(const std::uint64_t* block);  ///< 64 masked words, boundary-aligned

  std::size_t width_;
  std::uint64_t mask_;
  std::uint64_t words_ = 0;
  bool started_ = false;          ///< a seam word exists (block_prev_ or block_[n_-1])
  std::uint64_t block_prev_ = 0;  ///< word preceding block_[0]
  std::size_t n_ = 0;             ///< staged transitions
  std::uint64_t block_[64] = {};  ///< post-transition words (masked)
  SwitchingCounts counts_;        ///< everything already flushed
};

/// Exact counts of a whole trace, chunked across the shared thread pool when
/// `threads` resolves to more than one (0 = TSVCOD_THREADS, else serial, as
/// everywhere). Chunks are merged in logical order; because the counts are
/// exact integers the result is bit-identical at every thread count.
SwitchingCounts compute_counts(std::span<const std::uint64_t> words, std::size_t width,
                               int threads = 1);

}  // namespace tsvcod::stats
