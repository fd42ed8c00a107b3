// Fleet coordinator (DESIGN.md §14): fans AttackJobSpecs out to N muxlinkd
// backends over MXRPC1 and survives backends dying, hanging, or lying.
//
// Robustness model:
//   * Health — a dedicated heartbeat thread probes every backend on a
//     fixed cadence (HELLO + STATS roundtrip). Consecutive failures drive
//     a three-state circuit breaker per backend:
//       HEALTHY  --fail x suspect_after--> SUSPECT  (no new dispatches)
//       SUSPECT  --fail x eject_after---> EJECTED   (probed re-admission)
//       any state --success------------> HEALTHY
//     Ejected backends keep being probed on the same cadence; one success
//     re-admits them.
//   * Retry — a failed or timed-out dispatch re-queues the job with
//     exponential backoff + decorrelated jitter (timing only — results are
//     deterministic, so jitter can never change bytes), bounded by a
//     per-job attempt cap and a fleet-wide retry budget.
//   * Failover — a job in flight on a backend that dies or stalls past its
//     dispatch deadline is re-dispatched elsewhere. Safe because the PR 9
//     contract makes re-execution byte-identical; when a late duplicate
//     result does arrive (hedging), the coordinator byte-compares it and
//     counts any mismatch as a determinism violation.
//   * Hedging — optional: a job running longer than `hedge_after_ms` may
//     be speculatively dispatched to a second idle backend; first terminal
//     result wins.
//   * Degradation — when every backend is ejected (or none configured),
//     jobs run locally in-process so a campaign always terminates.
//   * Caps — dispatch submits in a `forwarded` envelope and waits with
//     WAIT_RESULT long-polls; a backend that did not negotiate both caps
//     fails the dispatch like a dead one, and the job is retried.
//
// Job priorities: campaign cells > interactive probes > bulk re-runs.
// Completed results land in a durable ResultSpool (retention per §14).
//
// Fault sites (MUXLINK_FAULTS): `fleet.heartbeat` fires on the heartbeat
// thread before each probe (sequential — deterministic nth-hit counting);
// `fleet.dispatch` before a submit and `fleet.result` before a delivery
// fire on runner threads, so deterministic counting holds only with one
// backend configured.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "muxlink/job.h"

namespace muxlink::fleet {

enum class Priority : int { kCampaign = 0, kInteractive = 1, kBulk = 2 };
enum class BackendHealth { kHealthy, kSuspect, kEjected };
const char* to_string(BackendHealth h) noexcept;

struct FleetOptions {
  std::vector<std::string> backends;  // MXRPC1 addresses ("unix:...", "tcp:host:port")

  // Breaker cadence/thresholds.
  int heartbeat_interval_ms = 500;
  int heartbeat_timeout_ms = 2000;   // io budget per probe
  int suspect_after_failures = 1;    // consecutive probe failures -> SUSPECT
  int eject_after_failures = 3;      // consecutive probe failures -> EJECTED

  // Retry policy.
  int max_attempts_per_job = 4;      // dispatches per job, including the first
  int retry_budget = 64;             // fleet-wide re-dispatch allowance
  int backoff_base_ms = 25;
  int backoff_cap_ms = 2000;
  std::uint64_t backoff_seed = 0x6d786c666c656574ull;  // jitter stream (timing only)

  // Dispatch behavior.
  long dispatch_timeout_ms = 0;      // per-dispatch wait before failover (0 = no cap)
  int hedge_after_ms = 0;            // speculative second dispatch (0 = off)
  bool allow_local_fallback = true;  // run in-process when all backends are ejected
  int io_timeout_ms = 10000;         // client reply budget
  int connect_attempts = 2;

  // Durable results spool ("" = none).
  std::string spool_dir;
  std::uint64_t spool_max_bytes = 0;
  long spool_ttl_seconds = 0;
};

struct FleetJobResult {
  std::string job_id;       // coordinator-assigned ("f1", "f2", ...)
  bool ok = false;
  common::Json manifest;    // ok only
  std::string key_string;   // ok only
  std::string backend;      // address that produced the result, or "local"
  int attempts = 0;
  std::string error;        // !ok only
};

class FleetCoordinator {
 public:
  explicit FleetCoordinator(FleetOptions opts);
  ~FleetCoordinator();  // stops if still running
  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  void start();
  void stop();

  // Enqueues a job; returns its coordinator id immediately.
  std::string submit(const core::AttackJobSpec& spec, Priority prio = Priority::kInteractive);

  // Blocks until the job is terminal. Throws std::invalid_argument for an
  // unknown id.
  FleetJobResult wait(const std::string& job_id);

  // submit + wait.
  FleetJobResult run(const core::AttackJobSpec& spec, Priority prio = Priority::kInteractive);

  BackendHealth backend_health(const std::string& address) const;

  // fleet.* counters + per-backend breaker snapshot.
  common::Json stats_json() const;

  const FleetOptions& options() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Deterministic decorrelated-jitter backoff (AWS-style): each step draws
// uniformly from [base, prev*3], clamped to [base, cap]. Pure function of
// (seed, job_key, attempt) so tests can pin the exact schedule; jitter
// affects timing only, never results. Exposed for unit tests.
int decorrelated_backoff_ms(std::uint64_t seed, std::uint64_t job_key, int attempt, int base_ms,
                            int cap_ms);

// Breaker transition helper, exposed for unit tests: given the current
// health and a probe outcome, returns the next state.
BackendHealth breaker_next(BackendHealth current, bool probe_ok, int consecutive_failures,
                           int suspect_after, int eject_after);

}  // namespace muxlink::fleet
