// Sink wiring from outside the program: the TSVCOD_* environment variables,
// the tools' sink flags (SinkGuard) and the snapshot-interval parser both
// share.
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "obs/snapshot.hpp"

namespace tsvcod::obs {

std::chrono::milliseconds parse_snapshot_interval(const std::string& text,
                                                  const std::string& knob) {
  const double max_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::duration::max() / 2)
                            .count();
  char* end = nullptr;
  const double ms = std::strtod(text.c_str(), &end) * 1000.0;
  const bool whole = !text.empty() && !std::isspace(static_cast<unsigned char>(text[0])) &&
                     end == text.c_str() + text.size();
  // The range check is false for NaN and for an overflowed +-inf as well.
  if (!whole || !(ms >= 1.0 && ms <= max_ms)) {
    char range[64];
    std::snprintf(range, sizeof range, "[0.001, %.3g]", max_ms / 1000.0);
    throw std::runtime_error(knob + " expects a number of seconds in " + range + ", got: '" +
                             text + "'");
  }
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

void init_from_env() {
  const char* t = std::getenv("TSVCOD_TRACE");
  if (t && *t) set_trace_path(t);
  const char* m = std::getenv("TSVCOD_METRICS");
  if (m && *m) set_metrics_path(m);
  const char* p = std::getenv("TSVCOD_PROFILE");
  if (p && *p) set_profile_path(p);
  const char* s = std::getenv("TSVCOD_SNAPSHOT");
  if (s && *s) {
    SnapshotOptions opts;
    if (const char* iv = std::getenv("TSVCOD_SNAPSHOT_INTERVAL"); iv && *iv) {
      opts.interval = parse_snapshot_interval(iv, "TSVCOD_SNAPSHOT_INTERVAL");
    }
    enable_metrics(true);
    start_snapshots(s, opts);
  }
}

SinkGuard::SinkGuard(const SinkFlags& flags) {
  std::optional<std::chrono::milliseconds> interval;
  if (flags.snapshot_interval) {
    interval = parse_snapshot_interval(*flags.snapshot_interval, "--snapshot-interval");
  }
  init_from_env();
  try {
    if (flags.trace) set_trace_path(*flags.trace);
    if (flags.metrics) set_metrics_path(*flags.metrics);
    if (flags.profile) set_profile_path(*flags.profile);
    if (flags.snapshot || interval) {
      const std::string path = flags.snapshot ? *flags.snapshot : snapshot_path();
      if (path.empty()) {
        throw std::runtime_error("--snapshot-interval needs --snapshot-out (or TSVCOD_SNAPSHOT)");
      }
      SnapshotOptions opts;
      if (interval) opts.interval = *interval;
      start_snapshots(path, opts);
    }
  } catch (...) {
    stop_snapshots();  // an exporter the environment started must not outlive the error
    throw;
  }
}

SinkGuard::~SinkGuard() {
  if (!armed_) return;
  try {
    stop_snapshots();
    flush_outputs(/*clean_exit=*/false);
  } catch (const std::exception& e) {
    // An error is already unwinding; report this one without replacing it.
    std::fprintf(stderr, "obs: partial outputs not written: %s\n", e.what());
  }
}

bool SinkGuard::finish() {
  armed_ = false;
  stop_snapshots();
  return flush_outputs(/*clean_exit=*/true);
}

}  // namespace tsvcod::obs
