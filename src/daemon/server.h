// muxlinkd server core (DESIGN.md §13): a long-lived coordinator that
// accepts MXRPC1 connections and serves them from a JobTable whose compute
// workers run each AttackJobSpec in-process. The split mirrors the classic
// coordinator/agent design: connection handlers only touch the job table
// (cheap, lock-guarded bookkeeping); compute workers only run jobs (minutes
// of CPU); neither ever blocks the other.
//
// Thread layout:
//   * one accept thread per listener (unix socket, optional TCP), polling
//     with a short timeout so shutdown never hangs in accept();
//   * a fixed pool of connection handlers pulling accepted fds from a
//     queue — the server-side half of the connection pool: N slow clients
//     occupy N handlers, the (N+1)-th waits in the accepted-fd queue
//     instead of spawning an unbounded thread;
//   * `workers` compute threads of the JobTable (job_table.h), each running
//     run_attack_job on the jobs of its bounded FIFO queue.
//
// Determinism contract (the acceptance criterion of PR 9): a job's result
// manifest depends only on its AttackJobSpec — never on the worker count,
// queue order, or concurrent jobs — because run_attack_job emits only
// scheduling-invariant data and the attack itself is bit-identical at any
// thread count (DESIGN.md §5). Concurrent jobs share the global thread pool
// and the zoo registry; both are safe under concurrent use (§5, §11).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"
#include "daemon/protocol.h"

namespace muxlink::daemon {

struct DaemonOptions {
  std::string socket_path;  // unix listener ("" = none; then tcp_listen required)
  std::string tcp_listen;   // "host:port" TCP listener ("" = unix only)
  int workers = 2;          // compute worker threads (bounded pool)
  int connection_handlers = 4;
  std::size_t max_queue = 64;      // queued jobs beyond this are refused (kQueueFull)
  double job_timeout_seconds = 0;  // server-side cap on every job (0 = none)
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int io_timeout_ms = 10000;  // mid-frame stall budget per connection read
  std::string spool_dir;      // completed-job manifests land here ("" = in-memory only)
  // Spool retention (DESIGN.md §14): both 0 = keep everything (PR 9
  // behavior). Unfetched results are pinned regardless of either knob.
  std::uint64_t spool_max_bytes = 0;
  long spool_ttl_seconds = 0;
  // Server-side ceiling on one WAIT_RESULT long-poll. A client asking for
  // more gets clamped and re-issues; keeping this below the client's io
  // timeout guarantees a hung server is still detected as a stall.
  int wait_result_cap_ms = 5000;
  std::string zoo_dir;  // substituted into zoo jobs that name no directory
};

class DaemonServer {
 public:
  explicit DaemonServer(DaemonOptions opts);
  ~DaemonServer();  // stops if still running
  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  // Binds the listeners and spawns the thread pools. Throws DaemonError
  // when a listener cannot bind (live daemon on the socket, port in use).
  void start();

  // Stops accepting SUBMITs (they get ERROR kDraining) and cancels every
  // queued job; running jobs finish and stay queryable. Idempotent.
  void request_drain();
  bool draining() const noexcept;

  // Blocks until no job is queued or running (used after request_drain).
  void wait_until_idle();

  // Full shutdown: drain, join every thread, close every socket. Blocks
  // until running jobs finish. Idempotent.
  void stop();

  // Ephemeral-port support for tests (0 when no TCP listener).
  int tcp_port() const noexcept;

  // The daemon.* stats snapshot served to STATS requests.
  common::Json stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace muxlink::daemon
