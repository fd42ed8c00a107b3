#include "fleet/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "common/fault.h"
#include "common/metrics.h"
#include "daemon/client.h"
#include "daemon/job_table.h"

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

// Seed of the backoff jitter stream (timing only, never results).
constexpr std::uint64_t kBackoffSeed = 0x6d786c666c656574ull;

long ms_until(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(t - Clock::now()).count();
}

struct BackendState {
  std::string address;
  std::unique_ptr<daemon::DaemonClient> client;  // used only by the dispatch holding `busy`
  bool busy = false;                             // one dispatch at a time
  BackendHealth health = BackendHealth::kHealthy;  // optimistic until proven otherwise
  int consecutive_failures = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t dispatch_failures = 0;
  std::uint64_t heartbeats_ok = 0;
  std::uint64_t heartbeats_failed = 0;
  std::uint64_t readmissions = 0;
};

// One attempt's dispatch and its hedge: the first DONE is published, a later
// one is a byte-compared duplicate.
struct Race {
  std::mutex m;
  int attempts = 0;  // the job's dispatches so far, this attempt's hedge included
  bool won = false;
  std::string manifest_text;  // dump() of the winning manifest
};

daemon::JobTable::Config table_config(const FleetOptions& opts) {
  return {.name = "fleet",
          .id_prefix = "f",
          .workers = std::max<int>(1, static_cast<int>(opts.backends.size())),
          .spool = {opts.spool_dir, opts.spool_max_bytes, opts.spool_ttl_seconds}};
}

}  // namespace

struct FleetCoordinator::Impl {
  const FleetOptions opts;

  mutable std::mutex m;  // guards backends' mutable fields and retry_budget_left
  std::condition_variable backend_cv;  // a backend freed or changed health, or stop
  std::vector<BackendState> backends;  // fixed after construction
  int retry_budget_left = 0;
  std::atomic<bool> stopping{false};   // written under m
  std::thread heartbeat_thread;

  // fleet.* lifetime counters beside the table's jobs_* counters.
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> hedges{0};
  std::atomic<std::uint64_t> duplicate_results{0};
  std::atomic<std::uint64_t> determinism_violations{0};
  std::atomic<std::uint64_t> local_runs{0};
  std::atomic<std::uint64_t> dispatch_failures{0};
  std::atomic<std::uint64_t> heartbeats{0};

  daemon::JobTable table;  // last: its workers use everything above

  explicit Impl(FleetOptions o)
      : opts(std::move(o)),
        retry_budget_left(std::max(0, opts.retry_budget)),
        table(table_config(opts),
              [this](const std::string& id, const core::AttackJobSpec& spec) {
                return run_job(id, spec);
              }) {
    for (const std::string& a : opts.backends) {
      backends.push_back({.address = a,
                          .client = std::make_unique<daemon::DaemonClient>(daemon::ClientOptions{
                              .address = a,
                              .connect_attempts = std::max(1, opts.connect_attempts),
                              .io_timeout_ms = opts.io_timeout_ms})});
    }
  }

  // --- lifecycle -----------------------------------------------------------

  void start() {
    table.start();
    if (!backends.empty()) {
      heartbeat_thread = std::thread([this] { heartbeat_loop(); });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(m);
      if (stopping) return;
      stopping = true;
    }
    backend_cv.notify_all();
    table.stop();
    if (heartbeat_thread.joinable()) heartbeat_thread.join();
  }

  // --- the table's runner --------------------------------------------------

  // Carries one job from its first dispatch to a result: a backend when one
  // is free and HEALTHY, in-process when none can ever be, and retries with
  // backoff in between. A DONE from a backend is published by settle().
  daemon::JobResult run_job(const std::string& id, const core::AttackJobSpec& spec) {
    daemon::JobResult out;
    for (;;) {
      std::string error;
      const std::optional<std::size_t> idx = acquire();
      if (idx) {
        if (attempt(*idx, id, spec, out, &error)) return out;
      } else if (stopping) {
        out.error = "fleet coordinator stopped";
        return out;
      } else if (!backends.empty() && !opts.allow_local_fallback) {
        out.error = "all backends ejected and local fallback disabled after " +
                    std::to_string(out.attempts) + " attempt(s)";
        return out;
      } else {
        // Graceful degradation: every backend is gone, so the job runs in
        // this process. Same spec, same deterministic manifest.
        ++out.attempts;
        ++local_runs;
        MUXLINK_COUNTER_ADD("fleet.local_runs", 1);
        try {
          core::AttackJobOutcome outcome = core::run_attack_job(spec);
          out.manifest = std::move(outcome.manifest);
          out.key_string = std::move(outcome.key_string);
          out.backend = "local";
          return out;
        } catch (const std::exception& e) {
          error = std::string("local execution failed: ") + e.what();
        }
      }
      if (!backoff(id, out, error)) return out;
    }
  }

  // Blocks until a HEALTHY backend is free and takes it. nullopt when there
  // are no backends, every one is EJECTED, or the fleet stops.
  std::optional<std::size_t> acquire() {
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      std::size_t idx = 0;
      if (stopping || all_ejected_locked()) return std::nullopt;
      if (take_free_locked(&idx)) return idx;
      backend_cv.wait(lock);
    }
  }

  bool take_free_locked(std::size_t* idx) {
    for (std::size_t i = 0; i < backends.size(); ++i) {
      BackendState& b = backends[i];
      if (b.health == BackendHealth::kHealthy && !b.busy) {
        b.busy = true;
        ++b.dispatched;
        *idx = i;
        return true;
      }
    }
    return false;
  }

  bool all_ejected_locked() const {
    for (const BackendState& b : backends) {
      if (b.health != BackendHealth::kEjected) return false;
    }
    return true;
  }

  // Decides a failed attempt: false (out.error set) when the per-job attempt
  // cap or the fleet-wide retry budget is spent, else waits out the
  // decorrelated-jitter backoff (woken early by stop()) and returns true.
  bool backoff(const std::string& id, daemon::JobResult& out, const std::string& error) {
    std::unique_lock<std::mutex> lock(m);
    const bool budget_ok = retry_budget_left > 0;
    if (stopping || !budget_ok || out.attempts >= std::max(1, opts.max_attempts_per_job)) {
      out.error = error + (budget_ok ? "" : " [retry budget exhausted]") + " after " +
                  std::to_string(out.attempts) + " attempt(s)";
      return false;
    }
    --retry_budget_left;
    ++retries;
    MUXLINK_COUNTER_ADD("fleet.retries", 1);
    const int delay = decorrelated_backoff_ms(kBackoffSeed, fnv1a64(id), out.attempts,
                                              opts.backoff_base_ms, opts.backoff_cap_ms);
    backend_cv.wait_for(lock, std::chrono::milliseconds(delay), [&] { return stopping.load(); });
    return true;
  }

  // One attempt on backend `idx` (taken by acquire), hedged onto a second
  // free backend once it runs past hedge_after_ms (at most one hedge, never
  // past the attempt cap). Returns whether a DONE was published, after both
  // dispatches have finished; *error is set otherwise.
  bool attempt(std::size_t idx, const std::string& id, const core::AttackJobSpec& spec,
               daemon::JobResult& out, std::string* error) {
    Race race;
    race.attempts = ++out.attempts;
    std::thread hedge;
    std::string hedge_error;
    // Returns false while no backend is free to take the hedge.
    const std::function<bool()> launch_hedge = [&] {
      std::size_t second = 0;
      {
        std::lock_guard<std::mutex> lock(m);
        if (out.attempts >= std::max(1, opts.max_attempts_per_job)) return true;
        if (!take_free_locked(&second)) return false;
      }
      int n = 0;
      {
        std::lock_guard<std::mutex> lock(race.m);
        n = out.attempts = ++race.attempts;
      }
      ++hedges;
      MUXLINK_COUNTER_ADD("fleet.hedges", 1);
      hedge = std::thread([&, second, n] {
        hedge_error = dispatch(second, id, spec, n, race, nullptr);
      });
      return true;
    };
    *error = dispatch(idx, id, spec, race.attempts, race,
                      opts.hedge_after_ms > 0 ? &launch_hedge : nullptr);
    if (hedge.joinable()) hedge.join();
    if (error->empty()) *error = hedge_error;
    return race.won;
  }

  // One dispatch to backend `idx`, freed here: a forwarded SUBMIT, then
  // WAIT_RESULT long-polls sliced against the failover deadline and, while
  // `hedge` is set, the hedge threshold. A DONE result settles the race.
  // Returns "" on DONE, else the error naming the backend.
  std::string dispatch(std::size_t idx, const std::string& id, const core::AttackJobSpec& spec,
                       int attempt_no, Race& race, const std::function<bool()>* hedge) {
    BackendState& b = backends[idx];
    try {
      MUXLINK_FAULT_POINT("fleet.dispatch");
      common::Json prov = common::Json::object();
      prov["coordinator"] = "muxlink-coord";
      prov["origin_id"] = id;
      prov["attempt"] = attempt_no;
      const std::string remote_id = b.client->submit_forwarded(spec, prov);
      const Clock::time_point t0 = Clock::now();
      const bool capped = opts.dispatch_timeout_ms > 0;
      const Clock::time_point deadline = t0 + std::chrono::milliseconds(opts.dispatch_timeout_ms);
      Clock::time_point hedge_at = t0 + std::chrono::milliseconds(opts.hedge_after_ms);
      for (;;) {
        if (stopping) throw daemon::DaemonError("fleet coordinator stopped");
        if (hedge && Clock::now() >= hedge_at) {
          if ((*hedge)()) {
            hedge = nullptr;
          } else {
            hedge_at = Clock::now() + std::chrono::milliseconds(100);  // look again later
          }
        }
        long slice = 0;  // 0 = server-side cap
        if (capped) {
          slice = ms_until(deadline);
          if (slice <= 0) throw daemon::DaemonError("dispatch deadline exceeded");
        }
        if (hedge) {
          const long h = std::max(1L, ms_until(hedge_at));
          slice = slice > 0 ? std::min(slice, h) : h;
        }
        const common::Json reply = b.client->wait_result(remote_id, slice);
        const std::string state = reply.string_or("state", "");
        if (state == "QUEUED" || state == "RUNNING") {
          if (capped && Clock::now() >= deadline) {
            try {
              b.client->cancel(remote_id);  // best effort: free the backend's queue slot
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
        daemon::JobResult r;
        r.manifest = *manifest;
        r.key_string = reply.string_or("key", "");
        r.backend = b.address;
        settle(race, id, std::move(r));
        record_probe(idx, true, /*from_dispatch=*/true);
        return "";
      }
    } catch (const std::exception& e) {
      ++dispatch_failures;
      MUXLINK_COUNTER_ADD("fleet.dispatch_failures", 1);
      record_probe(idx, false, /*from_dispatch=*/true);
      return std::string(e.what()) + " (backend " + b.address + ")";
    }
  }

  // Publishes the race's first DONE; byte-compares any later one against it
  // (the determinism contract says both executions produced the same bytes).
  void settle(Race& race, const std::string& id, daemon::JobResult r) {
    std::lock_guard<std::mutex> lock(race.m);
    if (race.won) {
      ++duplicate_results;
      MUXLINK_COUNTER_ADD("fleet.duplicate_results", 1);
      if (r.manifest.dump() != race.manifest_text) {
        ++determinism_violations;
        MUXLINK_COUNTER_ADD("fleet.determinism_violations", 1);
      }
      return;
    }
    race.won = true;
    race.manifest_text = r.manifest.dump();
    r.attempts = race.attempts;
    table.publish(id, std::move(r));
  }

  // --- breaker -------------------------------------------------------------

  // Feeds a heartbeat or dispatch outcome to backend `idx`'s breaker; a
  // finished dispatch also frees the backend.
  void record_probe(std::size_t idx, bool ok, bool from_dispatch) {
    bool changed = false;
    {
      std::lock_guard<std::mutex> lock(m);
      BackendState& b = backends[idx];
      b.consecutive_failures = ok ? 0 : b.consecutive_failures + 1;
      if (from_dispatch) {
        b.busy = false;
        ok ? ++b.completed : ++b.dispatch_failures;
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
    if (changed || from_dispatch) backend_cv.notify_all();
  }

  void heartbeat_loop() {
    // One sequential thread probes every backend — the MUXLINK_FAULTS
    // contract (fault.h) requires deterministic nth-hit counting, which
    // only a single-threaded probe order provides.
    for (;;) {
      for (std::size_t i = 0; i < backends.size(); ++i) {
        if (stopping) return;
        ++heartbeats;
        MUXLINK_COUNTER_ADD("fleet.heartbeats", 1);
        bool ok = false;
        try {
          MUXLINK_FAULT_POINT("fleet.heartbeat");
          daemon::DaemonClient({.address = backends[i].address,
                                .connect_attempts = 1,
                                .io_timeout_ms = opts.heartbeat_timeout_ms})
              .stats();
          ok = true;
        } catch (const std::exception&) {
          ok = false;
        }
        record_probe(i, ok, /*from_dispatch=*/false);
      }
      const auto interval = std::chrono::milliseconds(std::max(50, opts.heartbeat_interval_ms));
      std::unique_lock<std::mutex> lock(m);
      if (backend_cv.wait_for(lock, interval, [&] { return stopping.load(); })) return;
    }
  }

  // --- stats ---------------------------------------------------------------

  common::Json stats_json() const {
    common::Json j = common::Json::object();
    j["coordinator"] = "muxlink-coord";
    table.add_stats(j);
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
    return j;
  }
};

FleetCoordinator::FleetCoordinator(FleetOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

FleetCoordinator::~FleetCoordinator() {
  try {
    stop();
  } catch (...) {
  }
}

void FleetCoordinator::start() { impl_->start(); }
void FleetCoordinator::stop() { impl_->stop(); }

std::string FleetCoordinator::submit(const core::AttackJobSpec& spec) {
  std::string id;
  if (impl_->table.submit(spec, &id) != daemon::Admission::kAccepted) {
    throw std::runtime_error("fleet coordinator stopped");
  }
  return id;
}

FleetJobResult FleetCoordinator::wait(const std::string& job_id) {
  std::optional<daemon::JobView> v = impl_->table.wait(job_id);
  if (!v) throw std::invalid_argument("unknown fleet job id '" + job_id + "'");
  FleetJobResult out;
  out.job_id = job_id;
  out.ok = v->state == daemon::JobState::kDone;
  out.manifest = std::move(v->result.manifest);
  out.key_string = std::move(v->result.key_string);
  out.backend = std::move(v->result.backend);
  out.attempts = v->result.attempts;
  out.error = daemon::is_terminal(v->state) ? std::move(v->result.error)
                                            : "fleet coordinator stopped";
  return out;
}

FleetJobResult FleetCoordinator::run(const core::AttackJobSpec& spec) {
  return wait(submit(spec));
}

BackendHealth FleetCoordinator::backend_health(const std::string& address) const {
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const BackendState& b : impl_->backends) {
    if (b.address == address) return b.health;
  }
  throw std::invalid_argument("unknown fleet backend '" + address + "'");
}

common::Json FleetCoordinator::stats_json() const { return impl_->stats_json(); }

}  // namespace muxlink::fleet
