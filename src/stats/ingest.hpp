#pragma once
// Recorded traces -> switching statistics.
//
// compute_stats(WordSource) hands the whole trace to the chunked bit-plane
// reduction in one call: an mmap'd binary trace goes file pages -> kernel
// with no intermediate vector, bit-identical to compute_stats on the
// materialized vector at every width and thread count. A consumer that
// receives a stream in pieces (the per-session windows in src/serve) folds
// them through the streaming stats::ChunkFolder (stats/bitplane.hpp) instead.
//
// Observability (when enabled): deterministic counters
// trace.ingest.{count,words_total,bytes_total} on the metrics registry, and
// timing-based trace.ingest.{words_per_sec,bytes_per_sec} samples on the
// trace counter track, all from compute_stats(WordSource).

#include "stats/switching_types.hpp"
#include "streams/word_source.hpp"

namespace tsvcod::stats {

/// finalize()d counts of the whole source at its own width; needs >= 2
/// words.
SwitchingStats compute_stats(const streams::WordSource& source, int threads = 1);

}  // namespace tsvcod::stats
