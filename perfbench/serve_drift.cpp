// serve-drift: load on serve::Server from one generator thread.
//
// Four sessions carry 64-bit correlator-coded buses. On each bus one 16-bit
// group is busy (a Gaussian AR(1) sample stream) and the other groups hold
// their last value. The busy group moves every kShiftWords words, so the
// drift detector trips and re-anneals run on the pool next to the shard
// drains.
//
// Two load shapes, alternated in rounds:
//   burst      : closed loop; a fixed upload of kBurstWords words is sent as
//                fast as ingest() accepts (the bounded shard queues push
//                back) and timed until the server has drained it: job_s
//   open loop  : batches of 512-1024 words round-robin over the sessions on a
//                fixed schedule at kReferenceRate; batch k is due when the
//                words before it have arrived, and its latency runs from that
//                due time until its session has processed it
// After the rounds a rate ladder (open loop, rising rates) finds the highest
// rate whose p99 latency meets kLatencyLimitMs with no backlog left when its
// sending stops. Open-loop latencies are reported but not compared between
// runs: on a shared host they follow scheduling stalls (see NOTES.md).
//
// The server exposes no completion callback, so a completion observer thread
// polls the session snapshots: a snapshot blocks while the session is
// mid-batch and so returns right after the batch completes.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "serve/server.hpp"
#include "stats/bitplane.hpp"
#include "streams/random_streams.hpp"
#include "tsv/linear_model.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace tsvcod;

namespace {

constexpr std::size_t kSessions = 4;
constexpr std::size_t kWidth = 64;
constexpr std::size_t kGroupBits = 16;
constexpr std::uint64_t kWindowWords = 4096;
constexpr std::uint64_t kShiftWords = 256 * kWindowWords;
constexpr std::size_t kMinBatch = 512;
constexpr std::size_t kMaxBatch = 1024;
constexpr double kReferenceRate = 1.5e6;  ///< words/s, all sessions together
constexpr double kOpenLoopSeconds = 1.0;   ///< per round
constexpr double kLatencyLimitMs = 20.0;
constexpr double kLadder[] = {1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6};
constexpr std::size_t kBurstWords = 4u << 20;
constexpr int kMinRounds = 4;
constexpr std::size_t kReplayWords = 1u << 20;  ///< per session, traced replay

/// One session's bus: the busy 16-bit group carries AR(1) samples, the
/// others hold their last value; the busy group moves every kShiftWords.
class DriftingBus {
 public:
  DriftingBus(std::uint64_t seed, std::size_t session)
      : samples_(kGroupBits, 3000.0, 0.9, seed * 1000 + session), session_(session) {}

  std::uint64_t next() {
    const std::size_t group = (n_++ / kShiftWords + session_) % (kWidth / kGroupBits);
    const std::uint64_t mask = ((std::uint64_t{1} << kGroupBits) - 1) << (group * kGroupBits);
    word_ = (word_ & ~mask) | (samples_.next() << (group * kGroupBits));
    return word_;
  }
  std::uint64_t produced() const { return n_; }

 private:
  streams::GaussianAr1Stream samples_;
  std::size_t session_;
  std::uint64_t n_ = 0;
  std::uint64_t word_ = 0;
};

bool same_counts(const stats::SwitchingCounts& a, const stats::SwitchingCounts& b) {
  return a.width == b.width && a.words == b.words && a.transitions == b.transitions &&
         a.ones == b.ones && a.self == b.self && a.cross == b.cross;
}

serve::SessionConfig session_config(const tsv::LinearCapacitanceModel& model, std::uint64_t seed) {
  serve::SessionConfig cfg;
  cfg.width = kWidth;
  cfg.codec.name = "correlator";
  cfg.model = model;
  cfg.drift.window_words = kWindowWords;
  cfg.drift.threshold = 0.05;
  cfg.drift.cooldown_words = kShiftWords / 4;
  cfg.optimize.schedule.iterations = 10000;
  cfg.optimize.schedule.restarts = 1;
  cfg.optimize.chains = 2;
  cfg.optimize.threads = 1;
  cfg.optimize.seed = static_cast<unsigned>(seed);
  return cfg;
}

/// Figures of one open-loop phase.
struct OpenLoop {
  std::vector<double> latency_ms;  ///< per batch, from due time to processed
  std::vector<double> late_ms;     ///< per batch, send time minus due time
  double ingest_s = 0.0;           ///< generator time inside ingest()
  double busy_s = 0.0;             ///< generator time up to the last send, minus sleep
  double tail_ms = 0.0;            ///< last send -> every batch processed
};

/// Records batch completion times. The generator registers each batch it
/// sends; the observer thread polls the session snapshots.
class CompletionObserver {
 public:
  explicit CompletionObserver(serve::Server& server) : server_(server) {
    thread_ = std::thread([this] { loop(); });
  }
  ~CompletionObserver() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  CompletionObserver(const CompletionObserver&) = delete;
  CompletionObserver& operator=(const CompletionObserver&) = delete;

  /// Batch number `seq` (1-based per session) of `session` was due at `due`.
  void sent(std::size_t session, std::uint64_t seq, Clock::time_point due) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_[session].push_back({seq, due});
      ++outstanding_;
    }
    cv_.notify_all();
  }

  /// Wait until every registered batch has completed; returns their
  /// latencies [ms] since the last call.
  std::vector<double> wait_all() {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return outstanding_ == 0; });
    return std::exchange(latency_ms_, {});
  }

 private:
  struct Pending {
    std::uint64_t seq;
    Clock::time_point due;
  };

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || outstanding_ > 0; });
      if (stop_) return;
      // Poll the session whose oldest batch has waited longest.
      std::size_t s = 0;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (!pending_[i].empty() &&
            (pending_[s].empty() || pending_[i].front().due < pending_[s].front().due)) {
          s = i;
        }
      }
      lk.unlock();
      const std::uint64_t done = server_.session_stats(s).batches;
      const auto now = Clock::now();
      lk.lock();
      std::size_t retired = 0;
      while (!pending_[s].empty() && pending_[s].front().seq <= done) {
        latency_ms_.push_back(
            std::chrono::duration<double, std::milli>(now - pending_[s].front().due).count());
        pending_[s].pop_front();
        ++retired;
      }
      outstanding_ -= retired;
      if (outstanding_ == 0) idle_cv_.notify_all();
      if (retired == 0) {
        // The batch is still queued: back off briefly instead of taking the
        // session lock in a tight loop.
        lk.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        lk.lock();
      }
    }
  }

  serve::Server& server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> pending_[kSessions];
  std::size_t outstanding_ = 0;
  std::vector<double> latency_ms_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

/// The load generator (runs on the calling thread).
class Generator {
 public:
  Generator(serve::Server& server, CompletionObserver& observer, std::uint64_t seed)
      : server_(server), observer_(observer), batch_rng_(seed) {
    for (std::size_t s = 0; s < kSessions; ++s) buses_.emplace_back(seed, s);
  }

  /// Open loop: offer `rate` words/s for `seconds`, then wait until every
  /// batch is processed.
  OpenLoop offer(double rate, double seconds) {
    OpenLoop ph;
    double idle_s = 0.0;
    const auto t0 = Clock::now();
    double offered = 0.0;  // words scheduled before the current batch
    while (offered / rate < seconds) {
      auto [s, words] = next_batch();
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offered / rate));
      offered += static_cast<double>(words.size());
      if (Clock::now() < due) idle_s += timed_seconds([&] { std::this_thread::sleep_until(due); });
      const auto send = Clock::now();
      ph.late_ms.push_back(std::chrono::duration<double, std::milli>(send - due).count());
      ingest(s, std::move(words));
      ph.ingest_s += seconds_since(send);
      observer_.sent(s, ++sent_[s], due);
    }
    const auto last_send = Clock::now();
    ph.busy_s = std::chrono::duration<double>(last_send - t0).count() - idle_s;
    ph.latency_ms = observer_.wait_all();
    ph.tail_ms = std::chrono::duration<double, std::milli>(Clock::now() - last_send).count();
    return ph;
  }

  /// Closed loop: send `words` words as fast as ingest() accepts, then
  /// drain; returns the seconds from the first send to drained.
  double burst(std::size_t words) {
    const auto t0 = Clock::now();
    for (std::size_t sent = 0; sent < words;) {
      auto [s, batch] = next_batch();
      sent += batch.size();
      ingest(s, std::move(batch));
      ++sent_[s];
    }
    obs::Span span("serve::drain");
    server_.drain();
    return seconds_since(t0);
  }

  std::uint64_t words_sent(std::size_t session) const { return buses_[session].produced(); }

 private:
  std::pair<std::size_t, std::vector<std::uint64_t>> next_batch() {
    const std::size_t s = next_session_;
    next_session_ = (next_session_ + 1) % kSessions;
    std::uniform_int_distribution<std::size_t> batch_size(kMinBatch, kMaxBatch);
    std::vector<std::uint64_t> words(batch_size(batch_rng_));
    obs::Span span("streams::generate");
    for (auto& w : words) w = buses_[s].next();
    return {s, std::move(words)};
  }

  void ingest(std::size_t session, std::vector<std::uint64_t> words) {
    obs::Span span("serve::ingest");
    server_.ingest(session, std::move(words));
  }

  serve::Server& server_;
  CompletionObserver& observer_;
  std::mt19937_64 batch_rng_;
  std::vector<DriftingBus> buses_;
  std::uint64_t sent_[kSessions] = {};
  std::size_t next_session_ = 0;
};

}  // namespace

void run_serve_drift(const Options& o, Report& report) {
  const auto geom = phys::TsvArrayGeometry::itrs2018_min(8, 8);
  // The server keeps shards + 2 pool workers (drains plus re-anneals); this
  // holds the pool at the thread budget.
  const serve::ServerOptions server_options{.shards = std::max(1, o.threads - 2),
                                            .queue_capacity = 64};

  // Set-up: model fit, server start and sessions opened. The first one
  // serves the load; it is repeated on throw-away servers after each round,
  // so the median is not at the mercy of one moment of the host.
  std::vector<double> setup_s;
  tsv::LinearCapacitanceModel model;
  const auto start_server = [&] {
    std::unique_ptr<serve::Server> started;
    setup_s.push_back(timed_seconds([&] {
      {
        obs::Span span("tsv::fit_from_analytic");
        model = tsv::fit_from_analytic(geom);
      }
      obs::Span span("serve::open_sessions");
      started = std::make_unique<serve::Server>(server_options);
      for (std::size_t s = 0; s < kSessions; ++s) {
        started->open_session(s, session_config(model, o.seed));
      }
    }));
    return started;
  };
  warm_up(o.threads);
  obs::enable_profiling(o.trace);
  const std::unique_ptr<serve::Server> server = start_server();
  if (o.trace) {
    report.layer["tsv.fit_s"] = {Profile::capture().total_s("tsv::fit_from_analytic"), "s"};
    obs::reset_profile();
  }
  obs::enable_profiling(false);

  CompletionObserver observer(*server);
  Generator gen(*server, observer, o.seed);

  // Rounds of burst + open loop until the budget (less the ladder's share)
  // is spent; a traced run profiles every other round.
  const double rounds_s = (o.trace ? 1.0 : 0.8) * o.seconds;
  std::vector<OpenLoop> open, traced_open;
  std::vector<double> burst_s, traced_burst_s, untraced_burst_s;
  double traced_busy_s = 0.0;
  gen.offer(kReferenceRate, 0.25);  // warm-up: caches, first trips
  const auto rounds_start = Clock::now();
  for (int r = 0; r < kMinRounds || seconds_since(rounds_start) < rounds_s; ++r) {
    const bool profiled = o.trace && r % 2 == 1;
    obs::enable_profiling(profiled);
    burst_s.push_back(gen.burst(kBurstWords));
    open.push_back(gen.offer(kReferenceRate, kOpenLoopSeconds));
    (profiled ? traced_burst_s : untraced_burst_s).push_back(burst_s.back());
    if (!o.trace) start_server();
    if (profiled) {
      traced_open.push_back(open.back());
      traced_busy_s += burst_s.back() + open.back().busy_s;
    }
  }
  obs::enable_profiling(false);

  // The ladder (untraced runs only).
  double sustained = 0.0;
  std::vector<double> ladder_p99;
  if (!o.trace) {
    const double rung_s = 0.2 * o.seconds / static_cast<double>(std::size(kLadder));
    for (const double rate : kLadder) {
      const OpenLoop ph = gen.offer(rate, rung_s);
      ladder_p99.push_back(quantile(ph.latency_ms, 0.99));
      if (ladder_p99.back() > kLatencyLimitMs || ph.tail_ms > kLatencyLimitMs) break;
      sustained = rate;
    }
  }
  const double rss = peak_rss_mb();
  server->drain();

  // Correctness: no server errors, zero desyncs, and each session's long-run
  // counts equal a one-shot count of every word it was sent.
  const auto errors = server->poll_errors();
  for (const auto& e : errors) report.failures.push_back("server error: " + e);
  const auto swaps = server->poll_swaps();
  const serve::Server::Totals totals = server->totals();
  // An op is a batch; each desynced word or server error fails at most one.
  report.attempted = totals.batches;
  report.failed = std::min<std::uint64_t>(totals.batches, totals.desyncs + errors.size());
  report.check(totals.desyncs == 0, std::to_string(totals.desyncs) + " decode desyncs");
  std::vector<std::vector<std::uint64_t>> replay(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::uint64_t n = gen.words_sent(s);
    std::vector<std::uint64_t> words(n);
    DriftingBus bus(o.seed, s);
    for (auto& w : words) w = bus.next();
    const auto snap = server->session_stats(s);
    report.check(snap.words == n, "session " + std::to_string(s) + " lost words");
    report.check(same_counts(snap.longrun, stats::compute_counts(words, kWidth, o.threads)),
                 "session " + std::to_string(s) + " long-run counts differ from a one-shot count");
    replay[s].assign(words.begin(), words.begin() + std::min<std::size_t>(n, kReplayWords));
  }

  std::vector<double> swap_ms;
  double saving = 0.0, reanneal_evals = 0.0;
  for (const auto& ev : swaps) {
    if (!ev.installed) continue;
    swap_ms.push_back(ev.latency_ms);
    saving += 100.0 * (1.0 - ev.power_after / ev.power_before);
    reanneal_evals += static_cast<double>(ev.evaluations);
  }
  report.check(!swap_ms.empty(), "drift never led to an installed re-anneal");
  if (swap_ms.empty()) return;
  saving /= static_cast<double>(swap_ms.size());

  std::vector<double> p50, p99, late;
  for (const auto& ph : open) {
    p50.push_back(quantile(ph.latency_ms, 0.5));
    p99.push_back(quantile(ph.latency_ms, 0.99));
    late.push_back(quantile(ph.late_ms, 0.99));
  }
  report.info["serve_p50_ms"] = {median(p50), "ms"};
  report.info["serve_p99_ms"] = {median(p99), "ms"};
  report.info["serve_burst_s"] = {median(burst_s), "s"};
  report.info["swap_p50_ms"] = {median(swap_ms), "ms"};
  report.info["swap_saving_pct"] = {saving, "%"};
  report.info["batches"] = {static_cast<double>(totals.batches), "count"};
  report.info["trips"] = {static_cast<double>(totals.trips), "count"};
  report.info["words"] = {static_cast<double>(totals.words), "count"};
  if (!o.trace) {
    report.info["serve_sustained_wps"] = {sustained, "1/s"};
    for (std::size_t k = 0; k < ladder_p99.size(); ++k) {
      char name[40];
      std::snprintf(name, sizeof name, "ladder_p99_ms@%.0fM", kLadder[k] / 1e6);
      report.info[name] = {ladder_p99[k], "ms"};
    }
    report.e2e["setup_s"] = {median(setup_s), "s"};
    report.e2e["job_s"] = {median(burst_s), "s"};
    report.e2e["throughput_per_s"] = {static_cast<double>(kBurstWords) / median(burst_s), "1/s"};
    report.e2e["saving_pct"] = {saving, "%"};
    report.e2e["peak_rss_mb"] = {rss, "MB"};
    return;
  }

  // Profiled rounds: per-layer serve figures and the attribution of the
  // generator thread's busy time (not asleep, not waiting for the tail).
  const Profile rounds = Profile::capture();
  double ingest_s = 0.0;
  for (const auto& ph : traced_open) ingest_s += ph.ingest_s;
  report.layer["serve.ingest_blocked_s"] = {ingest_s / static_cast<double>(traced_open.size()), "s"};
  report.layer["serve.drain_s"] = {
      rounds.total_s("serve::drain") / static_cast<double>(rounds.count("serve::drain")), "s"};
  report.layer["serve.generator_late_ms"] = {median(late), "ms"};
  report.layer["serve.max_queue_depth"] = {static_cast<double>(totals.max_queue_depth), "count"};
  report.layer["serve.trips"] = {static_cast<double>(totals.trips), "count"};
  report.layer["serve.swaps"] = {static_cast<double>(totals.swaps), "count"};
  report.layer["core.reanneal_evaluations"] = {
      reanneal_evals / static_cast<double>(swap_ms.size()), "count"};
  const double wrapped = rounds.total_s("streams::generate") + rounds.total_s("serve::ingest") +
                         rounds.total_s("serve::drain");
  report.layer["obs.attributed_pct"] = {100.0 * wrapped / traced_busy_s, "%"};
  report.layer["obs.overhead_pct"] = {
      100.0 * (median(traced_burst_s) / median(untraced_burst_s) - 1.0), "%"};
  obs::reset_profile();

  // Replay each session's words through the two calls Session::ingest
  // makes, standalone and single-threaded.
  obs::enable_profiling(true);
  double replayed = 0.0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    core::CodedLink link(core::SignedPermutation::identity(kWidth),
                         coding::make_codec(session_config(model, o.seed).codec, kWidth));
    std::uint64_t lost = 0;
    {
      obs::Span span("coding::roundtrip");
      for (const std::uint64_t w : replay[s]) lost += link.roundtrip(w) != w;
    }
    report.check(lost == 0, "replayed round-trip lost words");
    {
      obs::Span span("stats::fold");
      stats::ChunkFolder folder(kWidth);
      folder.fold(replay[s]);
    }
    replayed += static_cast<double>(replay[s].size());
  }
  obs::enable_profiling(false);
  const Profile replay_profile = Profile::capture();
  report.layer["coding.roundtrip_wps"] = {replayed / replay_profile.total_s("coding::roundtrip"),
                                          "1/s"};
  report.layer["stats.fold_wps"] = {replayed / replay_profile.total_s("stats::fold"), "1/s"};
}

}  // namespace perfbench
