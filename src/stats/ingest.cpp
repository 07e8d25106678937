#include "stats/ingest.hpp"

#include <chrono>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "stats/bitplane.hpp"

namespace tsvcod::stats {

SwitchingStats compute_stats(const streams::WordSource& source, int threads) {
  obs::Span span("stats.ingest");
  std::chrono::steady_clock::time_point t0;
  if (span.traced()) t0 = std::chrono::steady_clock::now();

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
