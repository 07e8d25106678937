#include "stats/ingest.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "obs/profile.hpp"

namespace tsvcod::stats {

ChunkFolder::ChunkFolder(std::size_t width, int threads)
    : width_(width), threads_(threads), total_(width) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("ChunkFolder: width must be in [1, 64], got " +
                                std::to_string(width));
  }
}

void ChunkFolder::fold(std::span<const std::uint64_t> chunk) {
  // Seam-chain invariant: an empty chunk carries no words and no
  // transitions, so it must not touch the seam (chunk.back() on an empty
  // span is UB, and even a masked read here would desync every later chunk).
  if (chunk.empty()) return;
  total_.merge(compute_counts_primed(primed_, prime_, chunk, width_, threads_));
  prime_ = chunk.back();
  primed_ = true;
}

std::uint64_t ChunkFolder::seam() const {
  if (!primed_) {
    throw std::logic_error("ChunkFolder::seam: no word folded yet (unprimed, width " +
                           std::to_string(width_) + ")");
  }
  return prime_;
}

void ChunkFolder::reset() {
  total_ = SwitchingCounts(width_);
  primed_ = false;
  prime_ = 0;
}

void ChunkFolder::reset_window() {
  // Keep the seam: the next window's first word still transitions from the
  // previous window's last word, so tumbling windows merge back to the
  // exact whole-stream counts.
  total_ = SwitchingCounts(width_);
}

SwitchingStats compute_stats(const streams::WordSource& source, int threads) {
  obs::Span span("stats.ingest");
  const auto t0 = std::chrono::steady_clock::now();

  const auto counts = compute_counts(source.words(), source.width(), threads);
  const std::uint64_t words_total = counts.words;

  if (obs::metrics_enabled()) {
    obs::metric_add("trace.ingest.count");
    obs::metric_add("trace.ingest.words_total", words_total);
    obs::metric_add("trace.ingest.bytes_total", source.bytes());
  }
  if (span.traced()) {
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (secs > 0.0) {
      obs::counter("trace.ingest.words_per_sec", static_cast<double>(words_total) / secs);
      obs::counter("trace.ingest.bytes_per_sec", static_cast<double>(source.bytes()) / secs);
    }
    std::ostringstream os;
    os << "\"source\":\"" << source.source() << "\",\"words\":" << words_total
       << ",\"width\":" << source.width();
    span.set_args(os.str());
  }
  obs::profile_work("words", words_total);
  obs::profile_work("bytes", source.bytes());
  return counts.finalize();
}

}  // namespace tsvcod::stats
