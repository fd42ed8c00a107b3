#include "daemon/job_table.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>

#include "common/metrics.h"

namespace muxlink::daemon {

namespace {

using Clock = std::chrono::steady_clock;

// Stat and counter names of the terminal states, indexed by JobState.
constexpr const char* kEndedNames[] = {"", "", "jobs_completed", "jobs_failed",
                                       "jobs_cancelled", "jobs_timeout"};

}  // namespace

const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
    case JobState::kTimeout: return "TIMEOUT";
  }
  return "?";
}

bool is_terminal(JobState s) noexcept {
  return s != JobState::kQueued && s != JobState::kRunning;
}

struct JobTable::Record {
  std::string id;
  core::AttackJobSpec spec;
  JobState state = JobState::kQueued;
  JobResult result;
  double wall_seconds = 0;  // time actually spent running
  Clock::time_point started{};
  std::optional<Clock::time_point> deadline;  // submit + timeout, when one applies
  bool delivered = false;
};

JobTable::JobTable(Config cfg, Runner runner) : cfg_(std::move(cfg)), runner_(std::move(runner)) {
  if (!cfg_.spool.dir.empty()) spool_ = std::make_unique<ResultSpool>(cfg_.spool);
}

JobTable::~JobTable() { stop(); }

void JobTable::start() {
  if (!workers_.empty()) throw std::logic_error("job table already started");
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void JobTable::count(const char* what) const {
  common::MetricsRegistry::instance().add(cfg_.name + "." + what);
}

Admission JobTable::submit(core::AttackJobSpec spec, std::string* id) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (draining_) return Admission::kDraining;
    if (cfg_.max_queue > 0 && queue_.size() >= cfg_.max_queue) return Admission::kQueueFull;
    auto rec = std::make_shared<Record>();
    rec->id = cfg_.id_prefix + std::to_string(next_id_++);
    rec->spec = std::move(spec);
    double timeout = rec->spec.timeout_seconds;
    if (cfg_.timeout_cap_seconds > 0 && (timeout <= 0 || timeout > cfg_.timeout_cap_seconds)) {
      timeout = cfg_.timeout_cap_seconds;
    }
    if (timeout > 0) {
      rec->deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(timeout));
    }
    *id = rec->id;
    jobs_.emplace(rec->id, rec);
    queue_.push_back(std::move(rec));
    depth = queue_.size();
    ++submitted_;
  }
  count("jobs_submitted");
  common::MetricsRegistry::instance().set(cfg_.name + ".queue_depth", static_cast<double>(depth));
  work_cv_.notify_one();
  return Admission::kAccepted;
}

std::optional<JobView> JobTable::view_locked(const std::string& id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Record& rec = *it->second;
  JobView v;
  v.state = rec.state;
  v.result = rec.result;
  v.wall_seconds = rec.wall_seconds;
  if (rec.state == JobState::kQueued) {
    for (const RecordPtr& q : queue_) {
      if (q.get() == &rec) break;
      ++v.queue_position;
    }
  }
  return v;
}

std::optional<JobView> JobTable::status(const std::string& id) const {
  std::lock_guard<std::mutex> lock(m_);
  return view_locked(id);
}

std::optional<JobView> JobTable::wait(const std::string& id, long timeout_ms) {
  std::optional<JobView> v;
  {
    std::unique_lock<std::mutex> lock(m_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    const RecordPtr rec = it->second;
    const auto ready = [&] { return stopping_ || is_terminal(rec->state); };
    if (timeout_ms < 0) {
      done_cv_.wait(lock, ready);
    } else {
      done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready);
    }
    v = view_locked(id);
    if (is_terminal(rec->state) && !rec->delivered) {
      rec->delivered = true;
      delivered_.push_back(id);
      while (delivered_.size() > kRetainedDelivered) {
        jobs_.erase(delivered_.front());
        delivered_.pop_front();
      }
    }
  }
  // Delivery releases the spool pin: a fetched result may now be reclaimed.
  if (v->state == JobState::kDone && spool_) spool_->mark_fetched(id);
  return v;
}

std::optional<JobView> JobTable::cancel(const std::string& id) {
  std::optional<JobView> v;
  {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    Record& rec = *it->second;
    // RUNNING jobs are not preempted (determinism contract); terminal
    // states are already final. Either way the reply reports the state.
    if (rec.state == JobState::kQueued) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), it->second));
      finish_locked(rec, JobState::kCancelled, {.error = "cancelled by client"});
    }
    v = view_locked(id);
  }
  done_cv_.notify_all();
  return v;
}

void JobTable::publish(const std::string& id, JobResult result) {
  RecordPtr rec;
  {
    std::lock_guard<std::mutex> lock(m_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return;
    rec = it->second;
  }
  complete(rec, std::move(result));
}

// Caller holds m_. Counters move inside the critical section that publishes
// the terminal state: a waiter wakes the instant the state flips, and its
// follow-up stats must already see this job.
void JobTable::finish_locked(Record& rec, JobState state, JobResult result) {
  rec.state = state;
  rec.result = std::move(result);
  ++ended_[static_cast<int>(state)];
  count(kEndedNames[static_cast<int>(state)]);
}

void JobTable::complete(const RecordPtr& rec, JobResult result) {
  const Clock::time_point t1 = Clock::now();
  JobState state = result.error.empty() ? JobState::kDone : JobState::kFailed;
  if (state == JobState::kDone && rec->deadline && t1 > *rec->deadline) {
    // Cooperative timeout: the result is discarded, not reported late.
    state = JobState::kTimeout;
    result = {.error = "job exceeded its deadline"};
  }
  {
    std::lock_guard<std::mutex> lock(m_);
    if (is_terminal(rec->state)) return;  // published already
  }
  // The spool entry lands before the state flips, so a client that sees
  // DONE finds the file.
  if (state == JobState::kDone && spool_) {
    try {
      spool_->put(rec->id, result.manifest.dump_pretty() + "\n");
    } catch (const std::exception&) {
      count("spool_errors");
    }
  }
  double wall = 0;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (is_terminal(rec->state)) return;
    rec->wall_seconds = wall = std::chrono::duration<double>(t1 - rec->started).count();
    finish_locked(*rec, state, std::move(result));
  }
  done_cv_.notify_all();
  common::MetricsRegistry::instance().record(cfg_.name + ".job_seconds", wall);
}

void JobTable::worker_loop() {
  for (;;) {
    RecordPtr rec;
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      rec = std::move(queue_.front());
      queue_.pop_front();
      common::MetricsRegistry::instance().set(cfg_.name + ".queue_depth",
                                              static_cast<double>(queue_.size()));
      rec->started = Clock::now();
      if (rec->deadline && rec->started >= *rec->deadline) {
        finish_locked(*rec, JobState::kTimeout,
                      {.error = "deadline passed before the job started"});
        done_cv_.notify_all();
        continue;
      }
      rec->state = JobState::kRunning;
      ++running_;
      common::MetricsRegistry::instance().set(cfg_.name + ".active_workers", running_);
    }
    JobResult result;
    try {
      result = runner_(rec->id, rec->spec);
    } catch (const std::exception& e) {
      result = {.error = e.what()};
    }
    complete(rec, std::move(result));
    {
      std::lock_guard<std::mutex> lock(m_);
      --running_;
      common::MetricsRegistry::instance().set(cfg_.name + ".active_workers", running_);
    }
    done_cv_.notify_all();
  }
}

// Caller holds m_.
void JobTable::cancel_queued_locked(const std::string& detail) {
  for (const RecordPtr& rec : queue_) finish_locked(*rec, JobState::kCancelled, {.error = detail});
  queue_.clear();
  common::MetricsRegistry::instance().set(cfg_.name + ".queue_depth", 0.0);
}

void JobTable::drain() {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (draining_) return;
    draining_ = true;
    cancel_queued_locked(cfg_.name + " draining");
  }
  done_cv_.notify_all();
}

bool JobTable::draining() const {
  std::lock_guard<std::mutex> lock(m_);
  return draining_;
}

void JobTable::wait_until_idle() {
  std::unique_lock<std::mutex> lock(m_);
  done_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void JobTable::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (stopping_) return;
    stopping_ = draining_ = true;
    cancel_queued_locked(cfg_.name + " stopped");
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (auto& t : workers_) t.join();  // blocks until running jobs finish
  workers_.clear();
}

void JobTable::add_stats(common::Json& j) const {
  {
    std::lock_guard<std::mutex> lock(m_);
    j["queue_depth"] = static_cast<std::int64_t>(queue_.size());
    j["active_workers"] = running_;
    j["draining"] = draining_;
    j["jobs_submitted"] = static_cast<std::int64_t>(submitted_);
    for (std::size_t s = static_cast<std::size_t>(JobState::kDone); s < std::size(ended_); ++s) {
      j[kEndedNames[s]] = static_cast<std::int64_t>(ended_[s]);
    }
  }
  if (spool_) {
    const SpoolStats s = spool_->stats();
    common::Json sj = common::Json::object();
    sj["entries"] = static_cast<std::int64_t>(s.entries);
    sj["bytes"] = static_cast<std::int64_t>(s.bytes);
    sj["unfetched"] = static_cast<std::int64_t>(s.unfetched);
    sj["gc_removed"] = static_cast<std::int64_t>(s.gc_removed);
    sj["recovered_temps"] = static_cast<std::int64_t>(s.recovered_temps);
    j["spool"] = sj;
  }
}

}  // namespace muxlink::daemon
