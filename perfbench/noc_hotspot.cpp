// noc-hotspot: a 16x16x4 mesh with hotspot traffic (every node fetches from
// the top die) carrying bursty MEMS payload, bounded input queues and one
// rank per thread. Every vertical TSV bundle is bus-invert coded with its
// own annealed assignment from plan_vertical_coding.
//
//   set-up : plan_vertical_coding (warm-up simulation + 1536 link anneals)
//   job    : build the coded mesh, attach the plan, simulate kCycles
#include <vector>

#include "noc/coded.hpp"
#include "noc/simulator.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tsvcod;

namespace {

constexpr std::size_t kNx = 16, kNy = 16, kNz = 4;
constexpr std::size_t kCycles = 10000;
constexpr std::size_t kQueueCapacity = 4;
constexpr int kSetupReps = 5;
constexpr int kMinJobs = 3;

const coding::CodecSpec kCodec{.name = "bus-invert"};

noc::TrafficConfig traffic(std::uint64_t seed) {
  noc::TrafficConfig cfg;
  cfg.spatial = noc::SpatialPattern::Hotspot;
  cfg.payload = noc::PayloadModel::Mems;
  cfg.injection_rate = 0.5;
  cfg.flit_width = 32;
  cfg.burst_on = 32.0;
  cfg.burst_off = 96.0;
  cfg.seed = seed;
  return cfg;
}

noc::SimOptions sim_options(int ranks) {
  noc::SimOptions so;
  so.threads = ranks;
  so.queue_capacity = kQueueCapacity;
  return so;
}

/// One simulation job; `plan` null = uncoded fabric.
noc::SimStats simulate(const noc::Mesh3D& mesh, const noc::TrafficConfig& cfg, int ranks,
                       const noc::VerticalCodingPlan* plan, const char* span_name) {
  obs::Span span(span_name);
  noc::NocSimulator sim(mesh, cfg, sim_options(ranks));
  if (plan) sim.attach_vertical_coding(kCodec, plan->assignments);
  return sim.run(kCycles);
}

bool conserved(const noc::SimStats& s) { return s.injected == s.delivered + s.in_flight; }

}  // namespace

void run_noc_hotspot(const Options& o, Report& report) {
  const noc::Mesh3D mesh(kNx, kNy, kNz);
  const noc::TrafficConfig cfg = traffic(o.seed);

  noc::VerticalCodingOptions vo;
  vo.spec = kCodec;
  vo.warmup_cycles = 4096;
  vo.optimize.schedule.iterations = 1500;
  vo.optimize.schedule.restarts = 1;
  vo.optimize.chains = 1;
  vo.optimize.seed = static_cast<unsigned>(o.seed);
  vo.threads = o.threads;

  warm_up(o.threads);
  obs::enable_profiling(o.trace);
  std::vector<double> setup_s;
  std::vector<noc::VerticalCodingPlan> plans;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(timed_seconds([&] {
      obs::Span span("noc::plan_vertical_coding");
      plans.push_back(noc::plan_vertical_coding(mesh, cfg, vo));
    }));
  }
  for (const auto& p : plans) {
    report.check(p.assignments == plans[0].assignments, "vertical coding plan differs between repetitions");
  }
  const noc::VerticalCodingPlan& plan = plans[0];
  if (o.trace) {
    const Profile setup = Profile::capture();
    report.layer["noc.plan_s"] = {setup.total_s("noc::plan_vertical_coding") / kSetupReps, "s"};
    obs::reset_profile();
  }

  // Timed part: coded jobs until the budget is spent (alternating profiling
  // off/on in a traced run).
  std::vector<double> job_s, traced_s, untraced_s;
  std::vector<noc::SimStats> runs;
  const int min_jobs = o.trace ? 2 * kMinJobs : kMinJobs;
  const auto budget_start = Clock::now();
  for (int k = 0; k < min_jobs || seconds_since(budget_start) < o.seconds; ++k) {
    const bool profiled = o.trace && k % 2 == 1;
    obs::enable_profiling(profiled);
    const double s = timed_seconds(
        [&] { runs.push_back(simulate(mesh, cfg, o.threads, &plan, "noc::run_coded")); });
    job_s.push_back(s);
    (profiled ? traced_s : untraced_s).push_back(s);
  }
  const double rss = peak_rss_mb();

  // The uncoded fabric must deliver the identical stream (profiled in a
  // traced run: its time is the base of coding.noc_overhead_x).
  obs::enable_profiling(o.trace);
  const noc::SimStats uncoded = simulate(mesh, cfg, o.threads, nullptr, "noc::run_uncoded");
  obs::enable_profiling(false);

  const noc::SimStats& coded = runs.front();
  for (const auto& s : runs) {
    ++report.attempted;
    const bool ok = conserved(s) && s == coded && s.ejection_digest == uncoded.ejection_digest &&
                    s.delivered == uncoded.delivered;
    if (!ok) ++report.failed;
  }
  ++report.attempted;
  if (!conserved(uncoded)) ++report.failed;
  report.check(report.failed == 0,
               "mesh run broke conservation, repeatability or coded/uncoded equality");

  std::uint64_t toggles = 0, coded_toggles = 0;
  for (const auto& link : plan.links) {
    const std::size_t slot = noc::link_slot(mesh.index(link.from), link.out);
    toggles += coded.link_toggles[slot];
    coded_toggles += coded.link_coded_toggles[slot];
  }
  report.check(toggles > 0 && coded.delivered > 0, "mesh delivered no vertical traffic");
  const double toggle_reduction =
      100.0 * (1.0 - static_cast<double>(coded_toggles) / static_cast<double>(toggles));

  const double job = median(job_s);
  report.info["noc_mflits_per_s"] = {static_cast<double>(coded.delivered) / job / 1e6, "Mflit/s"};
  report.info["noc_latency_cycles"] = {coded.mean_latency, "cycles"};
  report.info["vlink_toggle_reduction_pct"] = {toggle_reduction, "%"};
  report.info["delivered_flits"] = {static_cast<double>(coded.delivered), "count"};
  report.info["vertical_links"] = {static_cast<double>(plan.links.size()), "count"};
  report.info["jobs"] = {static_cast<double>(runs.size()), "count"};
  if (!o.trace) {
    report.e2e["setup_s"] = {median(setup_s), "s"};
    report.e2e["job_s"] = {job, "s"};
    report.e2e["throughput_per_s"] = {static_cast<double>(coded.delivered) / job, "1/s"};
    report.e2e["saving_pct"] = {toggle_reduction, "%"};
    report.e2e["peak_rss_mb"] = {rss, "MB"};
    return;
  }

  // Traced extras: a 1-rank rerun for the parallel speedup and the
  // rank-count invariance of SimStats.
  obs::enable_profiling(true);
  const noc::SimStats serial = simulate(mesh, cfg, 1, &plan, "noc::run_coded_1rank");
  obs::enable_profiling(false);
  ++report.attempted;
  if (!(serial == coded)) ++report.failed;
  report.check(serial == coded, "SimStats at 1 rank differ from the ones at " +
                                    std::to_string(o.threads));

  const Profile p = Profile::capture();
  const double run_s = p.total_s("noc::run_coded") / static_cast<double>(traced_s.size());
  const double router_cycles = static_cast<double>(mesh.node_count() * kCycles);
  report.layer["noc.run_s"] = {run_s, "s"};
  report.layer["noc.ns_per_router_cycle"] = {run_s * 1e9 / router_cycles, "ns"};
  report.layer["noc.stalled_cycles"] = {static_cast<double>(coded.stalled_cycles), "count"};
  report.layer["noc.parallel_speedup"] = {p.total_s("noc::run_coded_1rank") / run_s, "x"};
  report.layer["coding.noc_overhead_x"] = {run_s / p.total_s("noc::run_uncoded"), "x"};
  double traced_wall = 0.0;
  for (const double s : traced_s) traced_wall += s;
  report.layer["obs.attributed_pct"] = {100.0 * p.total_s("noc::run_coded") / traced_wall, "%"};
  report.layer["obs.overhead_pct"] = {100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%"};
}

}  // namespace perfbench
