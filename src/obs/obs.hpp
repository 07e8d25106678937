#pragma once
// Structured observability layer: Chrome-trace-event tracing, a metrics
// registry and a span-tree profiler (obs/profile.hpp), all runtime-toggled
// and compiled so that the *disabled* path is a relaxed atomic load and a
// branch — cheap enough to leave in every hot loop (bench/obs_overhead
// measures it).
//
// Tracing (`Span`, `counter`) appends to per-thread buffers: a
// worker only ever touches its own buffer (one uncontended per-buffer mutex,
// never shared between workers), so tracing composes with `opt::parallel_for`
// without serializing the pool. `trace_to_json()` merges the buffers into a
// `chrome://tracing` / Perfetto-loadable JSON document; call it from a
// quiescent point (no parallel section in flight).
//
// Metrics are named counters (uint64), gauges (double) and fixed-bucket
// histograms (uint64 bucket counts). Determinism contract: counter adds and
// histogram observations are integer and commutative, so totals are
// bit-identical at every thread count no matter which thread records them;
// gauges are last-write-wins and must only be written from logical-order
// (serial) code — the instrumented subsystems record them from post-reduction
// loops. `metrics_to_json()` emits entries sorted by name, so the whole
// document is bit-identical across thread counts.
//
// Enablement: `TSVCOD_TRACE=<file>` / `TSVCOD_METRICS=<file>` environment
// variables (picked up by `init_from_env`) or the tools' `--trace-out` /
// `--metrics-out` flags, both wired by `SinkGuard`; programs can also toggle
// directly via `enable_tracing` / `enable_metrics`.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace tsvcod::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<bool> g_metrics_enabled;
extern std::atomic<bool> g_profile_enabled;

struct ProfileNode;  // span-tree node (obs/profile.cpp)

/// Per-span profiler state carried inside `Span`: the tree node the span
/// accumulates into, the steady-clock start, and the hardware-counter
/// snapshot at begin (zeros when perf counters are unavailable).
struct ProfileHandle {
  ProfileNode* node = nullptr;
  std::int64_t t0_ns = 0;
  std::uint64_t perf0[4] = {0, 0, 0, 0};
  bool perf_ok = false;
};
void profile_span_begin(const char* name, ProfileHandle& h);
void profile_span_end(ProfileHandle& h);
ProfileNode* profile_adopt(ProfileNode* parent);  // returns the previous current
void profile_restore(ProfileNode* previous);
}  // namespace detail

/// One relaxed load: the whole cost of a disabled span/metric call site.
inline bool trace_enabled() { return detail::g_trace_enabled.load(std::memory_order_relaxed); }
inline bool metrics_enabled() { return detail::g_metrics_enabled.load(std::memory_order_relaxed); }
inline bool profiling_enabled() { return detail::g_profile_enabled.load(std::memory_order_relaxed); }

void enable_tracing(bool on = true);
void enable_metrics(bool on = true);
void enable_profiling(bool on = true);  // defined in obs/profile.cpp

/// Read TSVCOD_TRACE / TSVCOD_METRICS / TSVCOD_PROFILE / TSVCOD_SNAPSHOT
/// (+ TSVCOD_SNAPSHOT_INTERVAL): a non-empty value enables the layer and
/// remembers the output path for `flush_outputs` (snapshots start their
/// background exporter immediately — see obs/snapshot.hpp).
void init_from_env();

/// Output paths ("" = none). Setting a non-empty path enables the layer.
void set_trace_path(std::string path);
void set_metrics_path(std::string path);
void set_profile_path(std::string path);
std::string trace_path();
std::string metrics_path();
std::string profile_path();

/// Write the trace / metrics / profile JSON to their configured paths (no-op
/// for the unset ones; the profile additionally gets a `<path>.folded`
/// collapsed-stack file). Returns true if anything was written. Every
/// written JSON document carries a top-level `"clean_exit"` marker: pass
/// false from error paths (the CLI's RAII flusher does) so partial outputs
/// are still usable but flagged.
bool flush_outputs(bool clean_exit = true);

/// Sink settings from a tool's command line (std::nullopt = flag not
/// given); each given value overrides the matching TSVCOD_* variable.
struct SinkFlags {
  std::optional<std::string> trace;              ///< --trace-out
  std::optional<std::string> metrics;            ///< --metrics-out
  std::optional<std::string> profile;            ///< --profile-out
  std::optional<std::string> snapshot;           ///< --snapshot-out
  std::optional<std::string> snapshot_interval;  ///< --snapshot-interval, seconds
};

/// RAII owner of a tool run's sinks. The constructor validates every flag,
/// then applies the environment (`init_from_env`) and the flag overrides and
/// starts the snapshot exporter; a rejected value leaves nothing running.
/// `finish()` is the clean exit: it stops the exporter and flushes with
/// `clean_exit=true`, returning whether anything was written. If the guard
/// is destroyed without `finish()` (an exception unwinding), it flushes
/// with `clean_exit=false`, reporting a sink error on stderr rather than
/// letting it replace the one in flight. The guard never writes to stdout:
/// tsvcod_serve's stdout is its JSON reply stream.
class SinkGuard {
 public:
  explicit SinkGuard(const SinkFlags& flags);
  ~SinkGuard();
  SinkGuard(const SinkGuard&) = delete;
  SinkGuard& operator=(const SinkGuard&) = delete;

  bool finish();

 private:
  bool armed_ = true;
};

// ---------------------------------------------------------------------------
// Cross-thread logical parenting for the span-tree profiler
// ---------------------------------------------------------------------------

/// Opaque handle to the calling thread's current profile node (nullptr when
/// profiling is disabled or no span is open). Capture it where a task is
/// *submitted* and wrap the task body in a `ProfileTaskScope` so spans opened
/// on a worker aggregate under the submitting span — the span tree then
/// depends only on the logical call structure, never on which thread ran an
/// item (`opt::parallel_for` does this automatically).
using ProfileToken = detail::ProfileNode*;
ProfileToken profile_current();

class ProfileTaskScope {
 public:
  explicit ProfileTaskScope(ProfileToken parent) {
    if (parent) {
      previous_ = detail::profile_adopt(parent);
      adopted_ = true;
    }
  }
  ~ProfileTaskScope() {
    if (adopted_) detail::profile_restore(previous_);
  }
  ProfileTaskScope(const ProfileTaskScope&) = delete;
  ProfileTaskScope& operator=(const ProfileTaskScope&) = delete;

 private:
  detail::ProfileNode* previous_ = nullptr;
  bool adopted_ = false;
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Render a double as a JSON number (nonfinite values become null).
std::string json_number(double v);

/// RAII scoped span: records a Chrome "X" (complete) event on destruction
/// when tracing is enabled, and aggregates into the span-tree profiler when
/// profiling is enabled. A span constructed while both are disabled is fully
/// inert.
class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled() || profiling_enabled()) begin(name);
  }
  ~Span() {
    if (active_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach arguments (the *body* of a JSON object, e.g. "\"n\":3") shown in
  /// the trace viewer. No-op unless a trace event will be emitted.
  void set_args(std::string args_body) {
    if (traced_) args_ = std::move(args_body);
  }
  /// Live in any layer (tracing or profiling).
  bool active() const { return active_; }
  /// A trace event will be emitted at destruction — guard trace-only work
  /// (arg strings, counter tracks) on this, not on `active()`, so profiled
  /// runs don't pay for tracing they never asked for.
  bool traced() const { return traced_; }

 private:
  void begin(const char* name);
  void end();

  std::string name_;
  std::string args_;
  std::int64_t start_us_ = 0;
  detail::ProfileHandle prof_;
  bool active_ = false;
  bool traced_ = false;
};

/// Counter-track sample ("C"): one named value-over-time track per name.
void counter(const char* name, double value);
void counter(const std::string& name, double value);

/// Counter-track sample with an explicit timestamp (µs). Simulators use this
/// to plot counters on a *simulated-time* axis (e.g. one µs per NoC cycle)
/// instead of wall-clock time.
void counter_at(const std::string& name, double value, std::int64_t ts_us);

/// Merge every thread's buffer into one Chrome trace JSON document. Must be
/// called from a quiescent point; events of spans still open are not
/// included.
std::string trace_to_json();

/// Drop all buffered events and restart the trace clock.
void reset_trace();

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic counter; integer adds are commutative, hence thread-count
/// invariant.
void metric_add(const char* name, std::uint64_t delta = 1);
void metric_add(const std::string& name, std::uint64_t delta);

/// Last-write-wins gauge. Write only from logical-order (serial) code when
/// determinism across thread counts is required.
void metric_set(const char* name, double value);
void metric_set(const std::string& name, double value);

/// Histogram observation. `bounds` are the fixed upper bucket edges (sorted
/// ascending; an implicit +inf bucket follows) and are latched on the first
/// observation of `name`; later calls reuse the registered edges.
void metric_observe(const char* name, double value, std::span<const double> bounds);

/// Deterministic serialization: {"counters":{...},"gauges":{...},
/// "histograms":{...}} with every map sorted by name.
std::string metrics_to_json();

/// Remove every registered metric (the next recording re-registers).
void reset_metrics();

}  // namespace tsvcod::obs
