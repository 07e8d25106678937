#pragma once
// Recorded traces -> switching statistics.
//
// compute_stats(WordSource) hands the whole trace to the chunked bit-plane
// reduction in one call: an mmap'd binary trace goes file pages -> kernel
// with no intermediate vector, bit-identical to compute_stats on the
// materialized vector at every width and thread count. A consumer that
// receives a stream in pieces (the per-session accumulators in src/serve)
// folds them through ChunkFolder, which carries the seam word between chunks
// so the merged counts equal those of the whole stream exactly.
//
// Observability (when enabled): deterministic counters
// trace.ingest.{count,words_total,bytes_total} on the metrics registry, and
// timing-based trace.ingest.{words_per_sec,bytes_per_sec} samples on the
// trace counter track, all from compute_stats(WordSource).

#include <span>

#include "stats/bitplane.hpp"
#include "stats/switching_types.hpp"
#include "streams/word_source.hpp"

namespace tsvcod::stats {

/// Incremental seam-chained chunk reduction: fold() arbitrary chunk sizes
/// (0, 1, 2, ... words — a streaming pipe delivers whatever it has) and the
/// accumulated counts are bit-identical to one-shot compute_counts of the
/// concatenated words, at every chunk partition and thread count.
///
/// Seam-chain invariant: after any sequence of fold() calls, `prime_` holds
/// the last word ever folded and `primed_` says whether any word has been
/// folded at all. The next non-empty chunk is seeded with that word (its
/// one-bits were already counted by the chunk that ended with it), so
/// transitions partition exactly across chunks. Empty chunks MUST leave both
/// fields untouched — advancing the seam without counting a transition (or
/// reading `back()` of an empty span) silently corrupts every later chunk.
class ChunkFolder {
 public:
  /// `threads` is passed through to the parallel chunk reduction (0 =
  /// TSVCOD_THREADS, as everywhere).
  explicit ChunkFolder(std::size_t width, int threads = 1);

  std::size_t width() const { return width_; }

  /// Fold the next chunk of the stream. Empty chunks are no-ops; a 1-word
  /// chunk adds one word (plus one transition once primed).
  void fold(std::span<const std::uint64_t> chunk);

  /// Everything folded so far (exact; mergeable).
  const SwitchingCounts& counts() const { return total_; }

  /// finalize()d counts; needs >= 2 words folded since the last reset.
  SwitchingStats stats() const { return total_.finalize(); }

  /// Words folded since construction / the last reset or window reset.
  std::uint64_t words() const { return total_.words; }

  /// True once at least one word has been folded (the seam word is live).
  bool primed() const { return primed_; }
  /// The seam word: last word folded. Only valid when primed().
  std::uint64_t seam() const;

  /// Full reset: counts cleared AND the seam chain forgotten (the next chunk
  /// starts a fresh stream).
  void reset();

  /// Windowed reset: clear the counts but carry the seam word over, so the
  /// next window's first word still forms a transition with the previous
  /// window's last word. Tumbling windows produced this way sum (merge) to
  /// the exact whole-stream counts. No-op on an unprimed folder.
  void reset_window();

 private:
  std::size_t width_;
  int threads_;
  bool primed_ = false;
  std::uint64_t prime_ = 0;
  SwitchingCounts total_;
};

/// finalize()d counts of the whole source at its own width; needs >= 2
/// words.
SwitchingStats compute_stats(const streams::WordSource& source, int threads = 1);

}  // namespace tsvcod::stats
