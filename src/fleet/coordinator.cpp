#include "fleet/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/metrics.h"
#include "daemon/client.h"
#include "daemon/spool.h"

namespace muxlink::fleet {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const char* to_string(BackendHealth h) noexcept {
  switch (h) {
    case BackendHealth::kHealthy: return "HEALTHY";
    case BackendHealth::kSuspect: return "SUSPECT";
    case BackendHealth::kEjected: return "EJECTED";
  }
  return "?";
}

int decorrelated_backoff_ms(std::uint64_t seed, std::uint64_t job_key, int attempt, int base_ms,
                            int cap_ms) {
  base_ms = std::max(1, base_ms);
  cap_ms = std::max(base_ms, cap_ms);
  // xorshift64* stream keyed by (seed, job) — deterministic, so tests can
  // pin the schedule. Decorrelated jitter: next in [base, min(cap, prev*3)].
  std::uint64_t s = (seed ^ (job_key * 0x9e3779b97f4a7c15ull)) | 1ull;
  int prev = base_ms;
  for (int i = 0; i < std::max(0, attempt); ++i) {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    const std::uint64_t r = s * 0x2545f4914f6cdd1dull;
    const int hi = std::min(cap_ms, prev * 3);
    prev = hi > base_ms ? base_ms + static_cast<int>(r % static_cast<std::uint64_t>(hi - base_ms + 1))
                        : base_ms;
  }
  return prev;
}

BackendHealth breaker_next(BackendHealth current, bool probe_ok, int consecutive_failures,
                           int suspect_after, int eject_after) {
  if (probe_ok) return BackendHealth::kHealthy;  // one success re-admits, even from EJECTED
  if (consecutive_failures >= std::max(1, eject_after)) return BackendHealth::kEjected;
  if (current == BackendHealth::kEjected) return BackendHealth::kEjected;  // only success leaves
  if (consecutive_failures >= std::max(1, suspect_after)) return BackendHealth::kSuspect;
  return current;
}

namespace {

struct FleetJob {
  std::string id;
  core::AttackJobSpec spec;
  Priority prio = Priority::kInteractive;
  std::uint64_t seq = 0;

  enum class State { kQueued, kRunning, kDone, kFailed };
  State state = State::kQueued;
  Clock::time_point not_before{};      // backoff gate while queued
  Clock::time_point running_since{};   // first dispatch of the current attempt
  int attempts = 0;                    // dispatches started (incl. hedges)
  int inflight = 0;                    // concurrent dispatches (1, or 2 when hedged)
  bool hedged = false;

  // Terminal result.
  common::Json manifest;
  std::string manifest_text;  // dump() of the winning manifest, for duplicate compare
  std::string key_string;
  std::string backend;
  std::string error;
};

struct BackendState {
  std::string address;
  BackendHealth health = BackendHealth::kHealthy;  // optimistic until proven otherwise
  int consecutive_failures = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t dispatch_failures = 0;
  std::uint64_t heartbeats_ok = 0;
  std::uint64_t heartbeats_failed = 0;
  std::uint64_t readmissions = 0;
};

}  // namespace

struct FleetCoordinator::Impl {
  FleetOptions opts;

  mutable std::mutex m;
  std::condition_variable queue_cv;  // runners + local fallback wait here
  std::condition_variable done_cv;   // wait() blocks here
  std::map<std::string, std::shared_ptr<FleetJob>> jobs;
  std::vector<std::shared_ptr<FleetJob>> order;  // submit order (seq-sorted)
  std::vector<BackendState> backends;
  std::uint64_t next_id = 1;
  int retry_budget_left = 0;
  bool started = false;
  std::atomic<bool> stopping{false};

  std::vector<std::thread> runners;  // one per backend
  std::thread heartbeat_thread;
  std::thread local_thread;

  std::unique_ptr<daemon::ResultSpool> spool;

  // fleet.* lifetime counters.
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_completed{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> hedges{0};
  std::atomic<std::uint64_t> duplicate_results{0};
  std::atomic<std::uint64_t> determinism_violations{0};
  std::atomic<std::uint64_t> local_runs{0};
  std::atomic<std::uint64_t> dispatch_failures{0};
  std::atomic<std::uint64_t> heartbeats{0};

  // --- lifecycle -----------------------------------------------------------

  void start() {
    if (started) throw std::runtime_error("fleet coordinator already started");
    started = true;
    retry_budget_left = std::max(0, opts.retry_budget);
    for (const std::string& a : opts.backends) {
      BackendState b;
      b.address = a;
      backends.push_back(std::move(b));
    }
    if (!opts.spool_dir.empty()) {
      daemon::SpoolOptions sopts;
      sopts.dir = opts.spool_dir;
      sopts.max_bytes = opts.spool_max_bytes;
      sopts.ttl_seconds = opts.spool_ttl_seconds;
      spool = std::make_unique<daemon::ResultSpool>(std::move(sopts));
    }
    for (std::size_t i = 0; i < backends.size(); ++i) {
      runners.emplace_back([this, i] { runner_loop(i); });
    }
    if (!backends.empty()) {
      heartbeat_thread = std::thread([this] { heartbeat_loop(); });
    }
    if (opts.allow_local_fallback || backends.empty()) {
      local_thread = std::thread([this] { local_loop(); });
    }
  }

  void stop() {
    if (!started || stopping.load()) {
      stopping = true;
      return;
    }
    stopping = true;
    queue_cv.notify_all();
    done_cv.notify_all();
    for (auto& t : runners) t.join();
    runners.clear();
    if (heartbeat_thread.joinable()) heartbeat_thread.join();
    if (local_thread.joinable()) local_thread.join();
  }

  // --- submit / wait -------------------------------------------------------

  std::string submit(const core::AttackJobSpec& spec, Priority prio) {
    auto job = std::make_shared<FleetJob>();
    job->spec = spec;
    job->prio = prio;
    {
      std::lock_guard<std::mutex> lock(m);
      job->seq = next_id;
      job->id = "f" + std::to_string(next_id++);
      job->not_before = Clock::now();
      jobs.emplace(job->id, job);
      order.push_back(job);
    }
    ++jobs_submitted;
    MUXLINK_COUNTER_ADD("fleet.jobs_submitted", 1);
    queue_cv.notify_all();
    return job->id;
  }

  FleetJobResult wait(const std::string& job_id) {
    std::shared_ptr<FleetJob> job;
    {
      std::lock_guard<std::mutex> lock(m);
      auto it = jobs.find(job_id);
      if (it == jobs.end()) throw std::invalid_argument("unknown fleet job id '" + job_id + "'");
      job = it->second;
    }
    FleetJobResult out;
    {
      std::unique_lock<std::mutex> lock(m);
      done_cv.wait(lock, [&] {
        return stopping.load() || job->state == FleetJob::State::kDone ||
               job->state == FleetJob::State::kFailed;
      });
      out.job_id = job->id;
      out.attempts = job->attempts;
      out.backend = job->backend;
      if (job->state == FleetJob::State::kDone) {
        out.ok = true;
        out.manifest = job->manifest;
        out.key_string = job->key_string;
      } else {
        out.ok = false;
        out.error = job->state == FleetJob::State::kFailed ? job->error : "coordinator stopped";
      }
    }
    // Retrieval releases the spool pin: a fetched result may now be GC'd.
    if (out.ok && spool) spool->mark_fetched(out.job_id);
    return out;
  }

  // --- queue claims --------------------------------------------------------

  // Lowest (priority, seq) queued job whose backoff gate has passed.
  // Caller holds `m`.
  std::shared_ptr<FleetJob> claim_locked(Clock::time_point now) {
    std::shared_ptr<FleetJob> best;
    for (const auto& job : order) {
      if (job->state != FleetJob::State::kQueued || now < job->not_before) continue;
      if (!best || std::make_pair(static_cast<int>(job->prio), job->seq) <
                       std::make_pair(static_cast<int>(best->prio), best->seq)) {
        best = job;
      }
    }
    if (best) {
      best->state = FleetJob::State::kRunning;
      best->running_since = now;
      ++best->attempts;
      ++best->inflight;
    }
    return best;
  }

  // Idle-runner poll granularity: 100ms normally, but an aggressive hedge
  // threshold needs a matching tick or short jobs finish inside the sleep
  // and the hedge window is never observed.
  int idle_tick_ms() const {
    if (opts.hedge_after_ms > 0 && opts.hedge_after_ms < 100) {
      return std::max(1, opts.hedge_after_ms);
    }
    return 100;
  }

  // A running, not-yet-hedged job past the hedge threshold. Caller holds `m`.
  std::shared_ptr<FleetJob> claim_hedge_locked(Clock::time_point now) {
    if (opts.hedge_after_ms <= 0) return nullptr;
    const auto threshold = std::chrono::milliseconds(opts.hedge_after_ms);
    for (const auto& job : order) {
      if (job->state != FleetJob::State::kRunning || job->hedged || job->inflight != 1) continue;
      if (job->attempts >= std::max(1, opts.max_attempts_per_job)) continue;
      if (now - job->running_since < threshold) continue;
      job->hedged = true;
      ++job->attempts;
      ++job->inflight;
      ++hedges;
      MUXLINK_COUNTER_ADD("fleet.hedges", 1);
      return job;
    }
    return nullptr;
  }

  // --- result delivery / retry ---------------------------------------------

  void deliver(const std::shared_ptr<FleetJob>& job, common::Json manifest,
               std::string key_string, const std::string& backend) {
    std::string spool_payload;
    {
      std::lock_guard<std::mutex> lock(m);
      --job->inflight;
      if (job->state == FleetJob::State::kDone || job->state == FleetJob::State::kFailed) {
        // Late duplicate (hedge partner finished first). The determinism
        // contract says both executions produced the same bytes — check it.
        ++duplicate_results;
        MUXLINK_COUNTER_ADD("fleet.duplicate_results", 1);
        if (job->state == FleetJob::State::kDone && manifest.dump() != job->manifest_text) {
          ++determinism_violations;
          MUXLINK_COUNTER_ADD("fleet.determinism_violations", 1);
        }
        return;
      }
      job->state = FleetJob::State::kDone;
      job->manifest = std::move(manifest);
      job->manifest_text = job->manifest.dump();
      job->key_string = std::move(key_string);
      job->backend = backend;
      spool_payload = job->manifest.dump_pretty() + "\n";
    }
    ++jobs_completed;
    MUXLINK_COUNTER_ADD("fleet.jobs_completed", 1);
    if (spool) {
      try {
        spool->put(job->id, spool_payload);
      } catch (const std::exception&) {
        MUXLINK_COUNTER_ADD("fleet.spool_errors", 1);
      }
    }
    done_cv.notify_all();
  }

  void requeue_or_fail(const std::shared_ptr<FleetJob>& job, const std::string& error) {
    bool failed = false;
    {
      std::lock_guard<std::mutex> lock(m);
      --job->inflight;
      if (job->state != FleetJob::State::kRunning) return;  // partner already resolved it
      if (job->inflight > 0) return;  // hedge partner still in flight — let it finish
      const bool budget_ok = retry_budget_left > 0;
      if (job->attempts < std::max(1, opts.max_attempts_per_job) && budget_ok) {
        --retry_budget_left;
        const int delay = decorrelated_backoff_ms(opts.backoff_seed, fnv1a64(job->id),
                                                  job->attempts, opts.backoff_base_ms,
                                                  opts.backoff_cap_ms);
        job->state = FleetJob::State::kQueued;
        job->not_before = Clock::now() + std::chrono::milliseconds(delay);
        job->hedged = false;
        ++retries;
        MUXLINK_COUNTER_ADD("fleet.retries", 1);
      } else {
        job->state = FleetJob::State::kFailed;
        job->error = error + (budget_ok ? "" : " [retry budget exhausted]") + " after " +
                     std::to_string(job->attempts) + " attempt(s)";
        failed = true;
      }
    }
    if (failed) {
      ++jobs_failed;
      MUXLINK_COUNTER_ADD("fleet.jobs_failed", 1);
      done_cv.notify_all();
    } else {
      queue_cv.notify_all();
    }
  }

  // Heartbeat-driven terminal sweep: every queued job fails when the whole
  // fleet is ejected and no local fallback exists to run it.
  void fail_queued_if_all_ejected() {
    std::size_t newly_failed = 0;
    {
      std::lock_guard<std::mutex> lock(m);
      if (backends.empty() || !all_ejected_locked()) return;
      for (const auto& job : order) {
        if (job->state != FleetJob::State::kQueued) continue;
        job->state = FleetJob::State::kFailed;
        job->error = "all backends ejected and local fallback disabled after " +
                     std::to_string(job->attempts) + " attempt(s)";
        ++newly_failed;
      }
    }
    if (newly_failed > 0) {
      jobs_failed += newly_failed;
      MUXLINK_COUNTER_ADD("fleet.jobs_failed", static_cast<std::int64_t>(newly_failed));
      done_cv.notify_all();
    }
  }

  // --- breaker -------------------------------------------------------------

  void record_probe(std::size_t idx, bool ok, bool from_dispatch) {
    bool changed = false;
    {
      std::lock_guard<std::mutex> lock(m);
      BackendState& b = backends[idx];
      b.consecutive_failures = ok ? 0 : b.consecutive_failures + 1;
      if (from_dispatch) {
        if (!ok) ++b.dispatch_failures;
      } else {
        ok ? ++b.heartbeats_ok : ++b.heartbeats_failed;
      }
      const BackendHealth next =
          breaker_next(b.health, ok, b.consecutive_failures, opts.suspect_after_failures,
                       opts.eject_after_failures);
      if (next != b.health) {
        changed = true;
        if (b.health == BackendHealth::kEjected && next == BackendHealth::kHealthy) {
          ++b.readmissions;
        }
        b.health = next;
        MUXLINK_GAUGE_SET("fleet.backend_health." + b.address,
                          static_cast<double>(static_cast<int>(next)));
      }
    }
    if (changed) queue_cv.notify_all();
  }

  bool healthy_locked(std::size_t idx) const {
    return backends[idx].health == BackendHealth::kHealthy;
  }

  bool all_ejected_locked() const {
    for (const BackendState& b : backends) {
      if (b.health != BackendHealth::kEjected) return false;
    }
    return true;
  }

  // --- threads -------------------------------------------------------------

  void runner_loop(std::size_t idx) {
    daemon::ClientOptions copts;
    {
      std::lock_guard<std::mutex> lock(m);
      copts.address = backends[idx].address;
    }
    copts.connect_attempts = std::max(1, opts.connect_attempts);
    copts.io_timeout_ms = opts.io_timeout_ms;
    daemon::DaemonClient client(copts);
    for (;;) {
      std::shared_ptr<FleetJob> job;
      {
        std::unique_lock<std::mutex> lock(m);
        // Claim before waiting: a runner returning from a dispatch picks up
        // queued work immediately instead of eating a full wait tick.
        for (;;) {
          if (stopping.load()) return;
          if (healthy_locked(idx)) {
            const auto now = Clock::now();
            job = claim_locked(now);
            if (!job) job = claim_hedge_locked(now);
            if (job) break;
          }
          // Timed wait, not a pure cv wait: backoff gates (not_before) and
          // hedge thresholds expire without anyone notifying. With hedging
          // enabled the tick shrinks to the hedge threshold so an idle
          // runner can't sleep through a straggler's whole window.
          queue_cv.wait_for(lock, std::chrono::milliseconds(idle_tick_ms()));
        }
        ++backends[idx].dispatched;
      }
      dispatch_one(idx, client, job);
    }
  }

  void dispatch_one(std::size_t idx, daemon::DaemonClient& client,
                    const std::shared_ptr<FleetJob>& job) {
    std::string backend_addr;
    int attempt = 0;  // claim_hedge_locked bumps job->attempts under m
    {
      std::lock_guard<std::mutex> lock(m);
      backend_addr = backends[idx].address;
      attempt = job->attempts;
    }
    std::string remote_id;
    try {
      MUXLINK_FAULT_POINT("fleet.dispatch");
      common::Json prov = common::Json::object();
      prov["coordinator"] = "muxlink-coord";
      prov["origin_id"] = job->id;
      prov["attempt"] = attempt;
      remote_id = client.submit_forwarded(job->spec, prov);
      const bool capped = opts.dispatch_timeout_ms > 0;
      const Clock::time_point deadline =
          Clock::now() + std::chrono::milliseconds(capped ? opts.dispatch_timeout_ms : 0);
      for (;;) {
        if (stopping.load()) return;  // abandoned; stop() is tearing us down
        long slice = 0;  // 0 = server-side cap
        if (capped) {
          slice =
              std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
          if (slice <= 0) throw daemon::DaemonError("dispatch deadline exceeded");
        }
        const common::Json reply = client.wait_result(remote_id, slice);
        const std::string state = reply.string_or("state", "");
        if (state == "QUEUED" || state == "RUNNING") {
          if (capped && Clock::now() >= deadline) {
            try {
              client.cancel(remote_id);  // best effort: free the backend's queue slot
            } catch (const std::exception&) {
            }
            throw daemon::DaemonError("dispatch deadline exceeded");
          }
          continue;
        }
        if (state != "DONE") {
          throw daemon::DaemonError("backend reported " + state + ": " +
                                    reply.string_or("error", "(no detail)"));
        }
        const common::Json* manifest = reply.find("manifest");
        if (!manifest) throw daemon::DaemonError("DONE result carried no manifest");
        MUXLINK_FAULT_POINT("fleet.result");
        record_probe(idx, true, /*from_dispatch=*/true);
        {
          std::lock_guard<std::mutex> lock(m);
          ++backends[idx].completed;
        }
        deliver(job, *manifest, reply.string_or("key", ""), backend_addr);
        return;
      }
    } catch (const std::exception& e) {
      ++dispatch_failures;
      MUXLINK_COUNTER_ADD("fleet.dispatch_failures", 1);
      record_probe(idx, false, /*from_dispatch=*/true);
      requeue_or_fail(job, std::string(e.what()) + " (backend " + backend_addr + ")");
    }
  }

  void heartbeat_loop() {
    // One sequential thread probes every backend — the MUXLINK_FAULTS
    // contract (fault.h) requires deterministic nth-hit counting, which
    // only a single-threaded probe order provides.
    for (;;) {
      for (std::size_t i = 0; i < backends.size(); ++i) {
        if (stopping.load()) return;
        ++heartbeats;
        MUXLINK_COUNTER_ADD("fleet.heartbeats", 1);
        bool ok = false;
        try {
          MUXLINK_FAULT_POINT("fleet.heartbeat");
          daemon::ClientOptions copts;
          {
            std::lock_guard<std::mutex> lock(m);
            copts.address = backends[i].address;
          }
          copts.connect_attempts = 1;
          copts.io_timeout_ms = opts.heartbeat_timeout_ms;
          daemon::DaemonClient probe(copts);
          probe.stats();
          ok = true;
        } catch (const std::exception&) {
          ok = false;
        }
        record_probe(i, ok, /*from_dispatch=*/false);
      }
      // With local fallback disabled nothing can drain the queue once the
      // whole fleet is ejected: fail queued jobs now instead of blocking
      // their waiters forever. Ejected backends keep being probed, so a
      // recovery re-admits the fleet for jobs submitted afterwards.
      if (!opts.allow_local_fallback) fail_queued_if_all_ejected();
      std::unique_lock<std::mutex> lock(m);
      queue_cv.wait_for(lock, std::chrono::milliseconds(std::max(50, opts.heartbeat_interval_ms)),
                        [&] { return stopping.load(); });
      if (stopping.load()) return;
    }
  }

  void local_loop() {
    for (;;) {
      std::shared_ptr<FleetJob> job;
      {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
          if (stopping.load()) return;
          if (backends.empty() || all_ejected_locked()) {
            job = claim_locked(Clock::now());
            if (job) break;
          }
          queue_cv.wait_for(lock, std::chrono::milliseconds(100));
        }
      }
      // Graceful degradation: every backend is gone, so the job runs in
      // this process. Same spec, same deterministic manifest.
      ++local_runs;
      MUXLINK_COUNTER_ADD("fleet.local_runs", 1);
      try {
        core::AttackJobOutcome outcome = core::run_attack_job(job->spec);
        deliver(job, std::move(outcome.manifest), std::move(outcome.key_string), "local");
      } catch (const std::exception& e) {
        requeue_or_fail(job, std::string("local execution failed: ") + e.what());
      }
    }
  }

  // --- stats ---------------------------------------------------------------

  common::Json stats_json() const {
    common::Json j = common::Json::object();
    j["coordinator"] = "muxlink-coord";
    j["jobs_submitted"] = static_cast<std::int64_t>(jobs_submitted.load());
    j["jobs_completed"] = static_cast<std::int64_t>(jobs_completed.load());
    j["jobs_failed"] = static_cast<std::int64_t>(jobs_failed.load());
    j["retries"] = static_cast<std::int64_t>(retries.load());
    j["hedges"] = static_cast<std::int64_t>(hedges.load());
    j["duplicate_results"] = static_cast<std::int64_t>(duplicate_results.load());
    j["determinism_violations"] = static_cast<std::int64_t>(determinism_violations.load());
    j["local_runs"] = static_cast<std::int64_t>(local_runs.load());
    j["dispatch_failures"] = static_cast<std::int64_t>(dispatch_failures.load());
    j["heartbeats"] = static_cast<std::int64_t>(heartbeats.load());
    common::Json arr = common::Json::array();
    {
      std::lock_guard<std::mutex> lock(m);
      for (const BackendState& b : backends) {
        common::Json bj = common::Json::object();
        bj["address"] = b.address;
        bj["health"] = to_string(b.health);
        bj["consecutive_failures"] = b.consecutive_failures;
        bj["dispatched"] = static_cast<std::int64_t>(b.dispatched);
        bj["completed"] = static_cast<std::int64_t>(b.completed);
        bj["dispatch_failures"] = static_cast<std::int64_t>(b.dispatch_failures);
        bj["heartbeats_ok"] = static_cast<std::int64_t>(b.heartbeats_ok);
        bj["heartbeats_failed"] = static_cast<std::int64_t>(b.heartbeats_failed);
        bj["readmissions"] = static_cast<std::int64_t>(b.readmissions);
        arr.push_back(std::move(bj));
      }
    }
    j["backends"] = std::move(arr);
    if (spool) {
      const daemon::SpoolStats s = spool->stats();
      common::Json sj = common::Json::object();
      sj["entries"] = static_cast<std::int64_t>(s.entries);
      sj["bytes"] = static_cast<std::int64_t>(s.bytes);
      sj["unfetched"] = static_cast<std::int64_t>(s.unfetched);
      sj["gc_removed"] = static_cast<std::int64_t>(s.gc_removed);
      sj["recovered_temps"] = static_cast<std::int64_t>(s.recovered_temps);
      j["spool"] = sj;
    }
    return j;
  }
};

FleetCoordinator::FleetCoordinator(FleetOptions opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
}

FleetCoordinator::~FleetCoordinator() {
  try {
    stop();
  } catch (...) {
  }
}

void FleetCoordinator::start() { impl_->start(); }
void FleetCoordinator::stop() { impl_->stop(); }

std::string FleetCoordinator::submit(const core::AttackJobSpec& spec, Priority prio) {
  return impl_->submit(spec, prio);
}

FleetJobResult FleetCoordinator::wait(const std::string& job_id) { return impl_->wait(job_id); }

FleetJobResult FleetCoordinator::run(const core::AttackJobSpec& spec, Priority prio) {
  return impl_->wait(impl_->submit(spec, prio));
}

BackendHealth FleetCoordinator::backend_health(const std::string& address) const {
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const BackendState& b : impl_->backends) {
    if (b.address == address) return b.health;
  }
  throw std::invalid_argument("unknown fleet backend '" + address + "'");
}

common::Json FleetCoordinator::stats_json() const { return impl_->stats_json(); }
const FleetOptions& FleetCoordinator::options() const noexcept { return impl_->opts; }

}  // namespace muxlink::fleet
