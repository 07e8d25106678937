#pragma once
// The three end-to-end workloads. Each fills the Report with its end-to-end
// metrics (untraced run) or its per-layer metrics (traced run), plus the
// correctness outcome: `attempted`/`failed` ops and any failed check.
#include "common.hpp"

namespace perfbench {

/// Paper designer flow on a 4x4 array: field-solver model fit (set-up), then
/// text trace -> correlator codec -> statistics -> annealed assignment and
/// baselines -> coded round-trip of every word -> circuit sign-off.
void run_design_flow(const Options& options, Report& report);

/// Open-loop load on serve::Server: four 64-bit correlator-coded sessions
/// whose busy bit group shifts every few windows, so drift trips re-anneals.
void run_serve_drift(const Options& options, Report& report);

/// 16x16x4 mesh, hotspot traffic with bursty MEMS payload, bounded queues,
/// bus-invert coded vertical links with per-link annealed assignments.
void run_noc_hotspot(const Options& options, Report& report);

}  // namespace perfbench
