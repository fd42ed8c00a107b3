// The one job table (DESIGN.md §13) behind muxlinkd and the fleet
// coordinator: job records, the FIFO queue, the lifecycle with its
// deadlines, cancel and drain, blocking and sliced waits, the results
// spool, the lifetime counters, and the compute workers. What a worker does
// with a job is the runner passed in at construction: the daemon runs the
// attack in-process, the fleet forwards it to a backend.
//
// Job lifecycle (DESIGN.md §13 state machine):
//   QUEUED -> RUNNING -> DONE | FAILED | TIMEOUT
//   QUEUED -> CANCELLED            (cancel, drain or stop)
// Timeouts are cooperative: a queued job whose deadline passed is never
// started; a running job is not preempted (that would forfeit the
// determinism contract) but reports TIMEOUT and discards its manifest when
// it finishes past the deadline.
//
// Bound: a terminal record whose result has been delivered (a wait returned
// it) is kept until kRetainedDelivered newer deliveries push it out, oldest
// delivery first; an evicted id is unknown from then on. Records never
// delivered stay pinned, like unfetched spool entries.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "daemon/spool.h"
#include "muxlink/job.h"

namespace muxlink::daemon {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled, kTimeout };
const char* to_string(JobState s) noexcept;
bool is_terminal(JobState s) noexcept;

// Delivered terminal records kept for late queries.
inline constexpr std::size_t kRetainedDelivered = 256;

// What a runner hands back for one job.
struct JobResult {
  common::Json manifest;   // DONE only
  std::string key_string;  // DONE only
  std::string error;       // non-empty = FAILED; the detail of CANCELLED/TIMEOUT too
  std::string backend;     // where the job ran (fleet: an address or "local")
  int attempts = 0;        // dispatches it took (fleet)
};

// One record as STATUS, RESULT and the waits report it.
struct JobView {
  JobState state = JobState::kQueued;
  JobResult result;
  double wall_seconds = 0;          // terminal states but CANCELLED
  std::int64_t queue_position = 0;  // QUEUED only
};

enum class Admission { kAccepted, kDraining, kQueueFull };

class JobTable {
 public:
  // Runs one job on a compute worker and returns its result; an exception
  // fails the job with its message. A runner may publish() the result
  // before it returns; what it returns afterwards is ignored.
  using Runner = std::function<JobResult(const std::string& id, const core::AttackJobSpec& spec)>;

  struct Config {
    std::string name;       // "daemon" | "fleet": metric prefix and drain/stop detail
    std::string id_prefix;  // ids are <prefix>1, <prefix>2, ... in submit order
    int workers = 1;
    std::size_t max_queue = 0;       // queued jobs beyond this are refused (0 = no bound)
    double timeout_cap_seconds = 0;  // caps every job's own timeout (0 = none)
    SpoolOptions spool;              // DONE manifests land here (dir "" = none)
  };

  // Opens the spool (throws what ResultSpool throws); start() spawns the
  // workers, once.
  JobTable(Config cfg, Runner runner);
  ~JobTable();  // stops
  JobTable(const JobTable&) = delete;
  JobTable& operator=(const JobTable&) = delete;

  void start();

  // Queues a job; *id is set when accepted.
  Admission submit(core::AttackJobSpec spec, std::string* id);

  // nullopt for an unknown or evicted id.
  std::optional<JobView> status(const std::string& id) const;

  // Blocks until the job is terminal, `timeout_ms` passes (< 0 = no limit;
  // 0 = look only) or the table stops. Returning a terminal state delivers
  // the result (its spool entry is marked fetched).
  std::optional<JobView> wait(const std::string& id, long timeout_ms = -1);

  // Cancels a QUEUED job; any other state is reported unchanged.
  std::optional<JobView> cancel(const std::string& id);

  // Makes a running job's result terminal before its runner returns (the
  // fleet publishes the first of two hedged results at once).
  void publish(const std::string& id, JobResult result);

  // Refuses further submits and cancels every queued job; running jobs
  // finish. Idempotent.
  void drain();
  bool draining() const;

  // Blocks until no job is queued or running.
  void wait_until_idle();

  // Drains, wakes every wait, and joins the workers (running jobs finish
  // first). Idempotent.
  void stop();

  // Adds queue_depth, active_workers, draining, the jobs_* counters and
  // the spool block to a stats document.
  void add_stats(common::Json& j) const;

 private:
  struct Record;
  using RecordPtr = std::shared_ptr<Record>;

  void worker_loop();
  void complete(const RecordPtr& rec, JobResult result);
  void finish_locked(Record& rec, JobState state, JobResult result);
  void cancel_queued_locked(const std::string& detail);
  std::optional<JobView> view_locked(const std::string& id) const;
  void count(const char* what) const;

  const Config cfg_;
  const Runner runner_;
  std::unique_ptr<ResultSpool> spool_;

  mutable std::mutex m_;  // guards everything below
  std::condition_variable work_cv_;  // workers wait for queued jobs
  std::condition_variable done_cv_;  // waits for terminal states and idleness
  std::unordered_map<std::string, RecordPtr> jobs_;
  std::deque<RecordPtr> queue_;
  std::deque<std::string> delivered_;  // delivered terminal ids, oldest first
  std::uint64_t next_id_ = 1;
  int running_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t ended_[static_cast<int>(JobState::kTimeout) + 1] = {};  // by terminal JobState

  std::vector<std::thread> workers_;
};

}  // namespace muxlink::daemon
