#include "daemon/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "daemon/job_table.h"
#include "daemon/net.h"

namespace muxlink::daemon {

namespace {

using Clock = std::chrono::steady_clock;

JobTable::Config table_config(const DaemonOptions& opts) {
  return {.name = "daemon",
          .id_prefix = "j",
          .workers = opts.workers,
          .max_queue = opts.max_queue,
          .timeout_cap_seconds = opts.job_timeout_seconds,
          .spool = {opts.spool_dir, opts.spool_max_bytes, opts.spool_ttl_seconds}};
}

JobResult run_job(const std::string&, const core::AttackJobSpec& spec) {
  core::AttackJobOutcome outcome = core::run_attack_job(spec);
  return {.manifest = std::move(outcome.manifest), .key_string = std::move(outcome.key_string)};
}

}  // namespace

struct DaemonServer::Impl {
  const DaemonOptions opts;
  JobTable table;

  std::vector<int> listen_fds;
  int tcp_port = 0;
  bool started = false;
  Clock::time_point start_time{};

  // Accepted connections waiting for a handler (the connection pool).
  std::mutex conn_m;
  std::condition_variable conn_cv;
  std::deque<int> conn_queue;
  std::atomic<bool> stopping{false};  // written under conn_m

  std::vector<std::thread> accept_threads;
  std::vector<std::thread> handler_threads;

  // Lifetime daemon.* stats beside the table's jobs_* counters.
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> jobs_forwarded{0};   // SUBMITs in a forwarded envelope
  std::atomic<std::uint64_t> wait_requests{0};    // WAIT_RESULT long-polls served

  explicit Impl(DaemonOptions o) : opts(std::move(o)), table(table_config(opts), run_job) {}

  // --- lifecycle -----------------------------------------------------------

  void start() {
    if (started) throw DaemonError("daemon already started");
    if (opts.socket_path.empty() && opts.tcp_listen.empty()) {
      throw DaemonError("daemon needs a unix socket path or a tcp listen address");
    }
    if (opts.workers < 1) throw DaemonError("daemon needs at least one worker");
    if (!opts.socket_path.empty()) {
      Address a;
      a.kind = Address::Kind::kUnix;
      a.path = opts.socket_path;
      listen_fds.push_back(listen_on(a));
    }
    if (!opts.tcp_listen.empty()) {
      listen_fds.push_back(listen_on(parse_address("tcp:" + opts.tcp_listen)));
      tcp_port = bound_tcp_port(listen_fds.back());
    }
    started = true;
    start_time = Clock::now();
    for (const int fd : listen_fds) {
      accept_threads.emplace_back([this, fd] { accept_loop(fd); });
    }
    const int handlers = std::max(1, opts.connection_handlers);
    for (int i = 0; i < handlers; ++i) {
      handler_threads.emplace_back([this] { handler_loop(); });
    }
    table.start();
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(conn_m);
      if (!started || stopping) return;
      stopping = true;
    }
    conn_cv.notify_all();
    table.stop();  // wakes WAIT_RESULT long-polls; blocks until running jobs finish
    for (auto& t : accept_threads) t.join();
    accept_threads.clear();
    for (auto& t : handler_threads) t.join();
    handler_threads.clear();
    for (const int fd : listen_fds) ::close(fd);
    listen_fds.clear();
    {
      std::lock_guard<std::mutex> lock(conn_m);
      for (const int fd : conn_queue) ::close(fd);
      conn_queue.clear();
    }
    if (!opts.socket_path.empty()) ::unlink(opts.socket_path.c_str());
  }

  // --- accept / connection handling ---------------------------------------

  void accept_loop(int listen_fd) {
    while (!stopping.load()) {
      pollfd p{listen_fd, POLLIN, 0};
      const int rc = ::poll(&p, 1, 500);
      if (rc <= 0) continue;  // timeout or EINTR: re-check the stop flag
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      ++connections_accepted;
      MUXLINK_COUNTER_ADD("daemon.connections_accepted", 1);
      {
        std::lock_guard<std::mutex> lock(conn_m);
        conn_queue.push_back(fd);
      }
      conn_cv.notify_one();
    }
  }

  void handler_loop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(conn_m);
        conn_cv.wait(lock, [&] { return stopping.load() || !conn_queue.empty(); });
        if (conn_queue.empty()) return;  // stopping
        fd = conn_queue.front();
        conn_queue.pop_front();
      }
      serve_connection(fd);
      ::close(fd);
    }
  }

  void serve_connection(int fd) {
    bool hello_done = false;  // HELLO-first discipline (DESIGN.md §13)
    while (!stopping.load()) {
      // Short poll so shutdown never waits on an idle client; the io
      // timeout inside read_frame only bounds mid-frame stalls.
      pollfd p{fd, POLLIN, 0};
      const int rc = ::poll(&p, 1, 200);
      if (rc < 0 && errno != EINTR) return;
      if (rc <= 0) continue;
      std::optional<Frame> frame;
      try {
        frame = read_frame(fd, opts.max_frame_bytes, opts.io_timeout_ms);
      } catch (const ProtocolError& e) {
        // Framing is lost: best-effort ERROR, then drop the connection.
        ++protocol_errors;
        MUXLINK_COUNTER_ADD("daemon.protocol_errors", 1);
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
        } catch (const ProtocolError&) {
        }
        return;
      }
      if (!frame) return;  // orderly close
      ++requests_served;
      MUXLINK_COUNTER_ADD("daemon.requests", 1);
      try {
        if (!dispatch(fd, *frame, hello_done)) return;
      } catch (const ProtocolError& e) {
        ++protocol_errors;
        MUXLINK_COUNTER_ADD("daemon.protocol_errors", 1);
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
        } catch (const ProtocolError&) {
        }
        return;
      } catch (const std::exception& e) {
        try {
          write_frame(fd, MsgType::kError, error_payload(ErrorCode::kInternal, e.what()));
        } catch (const ProtocolError&) {
        }
      }
    }
  }

  // Returns false when the connection must close (version rejection).
  bool dispatch(int fd, const Frame& frame, bool& hello_done) {
    if (frame.type == MsgType::kHello) {
      const common::Json req = parse_payload(frame);
      bool ok = false;
      if (const common::Json* versions = req.find("versions"); versions && versions->is_array()) {
        for (std::size_t i = 0; i < versions->size(); ++i) {
          const common::Json& v = versions->at(i);
          if (v.is_number() && v.as_int() == kProtocolVersion) ok = true;
        }
      }
      if (!ok) {
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kUnsupportedVersion,
                                  "server speaks MXRPC1 version 1 only"));
        return false;
      }
      // Any other HELLO keys (e.g. a "caps" list) are ignored.
      common::Json reply = common::Json::object();
      reply["version"] = static_cast<int>(kProtocolVersion);
      reply["server"] = "muxlinkd";
      write_frame(fd, MsgType::kHelloOk, reply.dump());
      hello_done = true;
      return true;
    }
    if (!hello_done) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kBadRequest, "HELLO must be the first message"));
      return true;
    }
    switch (frame.type) {
      case MsgType::kSubmit: return handle_submit(fd, frame);
      case MsgType::kStatus:
      case MsgType::kResult:
      case MsgType::kWaitResult:
      case MsgType::kCancel: return handle_job(fd, frame);
      case MsgType::kStats:
        write_frame(fd, MsgType::kStatsOk, stats_json().dump());
        return true;
      case MsgType::kShutdown: {
        table.drain();
        common::Json reply = common::Json::object();
        reply["draining"] = true;
        write_frame(fd, MsgType::kShutdownOk, reply.dump());
        return true;
      }
      default:
        // Reply types (and HELLO handled above) are not valid requests.
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kBadRequest,
                                  std::string(type_name(frame.type)) + " is not a request"));
        return true;
    }
  }

  bool handle_submit(int fd, const Frame& frame) {
    core::AttackJobSpec spec;
    bool forwarded = false;
    try {
      common::Json payload = parse_payload(frame);
      // Coordinator envelope: the spec rides under "spec" with provenance
      // alongside; the spec JSON itself stays the plain SUBMIT document, so
      // from_json's strict key set holds.
      if (payload.is_object() && payload.find("spec")) {
        forwarded = true;
        spec = core::AttackJobSpec::from_json(payload.at("spec"));
      } else {
        spec = core::AttackJobSpec::from_json(payload);
      }
    } catch (const std::invalid_argument& e) {
      write_frame(fd, MsgType::kError, error_payload(ErrorCode::kBadRequest, e.what()));
      return true;
    }
    if (spec.use_zoo && spec.zoo_dir.empty()) spec.zoo_dir = opts.zoo_dir;
    std::string id;
    switch (table.submit(std::move(spec), &id)) {
      case Admission::kDraining:
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kDraining, "daemon is draining; submit refused"));
        return true;
      case Admission::kQueueFull:
        write_frame(fd, MsgType::kError,
                    error_payload(ErrorCode::kQueueFull,
                                  "job queue is full (" + std::to_string(opts.max_queue) + ")"));
        return true;
      case Admission::kAccepted: break;
    }
    if (forwarded) {
      ++jobs_forwarded;
      MUXLINK_COUNTER_ADD("daemon.jobs_forwarded", 1);
    }
    common::Json reply = common::Json::object();
    reply["job_id"] = id;
    write_frame(fd, MsgType::kSubmitOk, reply.dump());
    return true;
  }

  // STATUS, RESULT, WAIT_RESULT and CANCEL: one job id in, the record's
  // state out in the request's success reply (request type | 0x01). RESULT
  // is a WAIT_RESULT that does not wait; a long-poll answering a
  // non-terminal state means "deadline expired first, re-issue if you still
  // care". An id the table does not know (never had, or evicted after
  // delivery) answers kUnknownJob.
  bool handle_job(int fd, const Frame& frame) {
    const common::Json req = parse_payload(frame);
    const common::Json* jid = req.find("job_id");
    if (!jid || !jid->is_string()) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kBadRequest, "payload needs a string job_id"));
      return true;
    }
    const std::string& id = jid->as_string();
    std::optional<JobView> v;
    if (frame.type == MsgType::kStatus) {
      v = table.status(id);
    } else if (frame.type == MsgType::kCancel) {
      v = table.cancel(id);
    } else if (frame.type == MsgType::kResult) {
      v = table.wait(id, 0);
    } else {
      // Long-poll, clamped to the server cap so a hung server is still
      // detected by the client's io timeout.
      long timeout_ms = 0;
      if (const common::Json* t = req.find("timeout_ms"); t && t->is_number()) {
        timeout_ms = static_cast<long>(t->as_double());
      }
      const long cap = std::max(0, opts.wait_result_cap_ms);
      if (timeout_ms <= 0 || timeout_ms > cap) timeout_ms = cap;
      ++wait_requests;
      MUXLINK_COUNTER_ADD("daemon.wait_requests", 1);
      v = table.wait(id, timeout_ms);
    }
    if (!v) {
      write_frame(fd, MsgType::kError,
                  error_payload(ErrorCode::kUnknownJob, "unknown job id '" + id + "'"));
      return true;
    }
    common::Json reply = common::Json::object();
    reply["job_id"] = id;
    reply["state"] = to_string(v->state);
    if (frame.type == MsgType::kStatus) {
      if (v->state == JobState::kQueued) reply["queue_position"] = v->queue_position;
      if (!v->result.error.empty()) reply["error"] = v->result.error;
      if (is_terminal(v->state) && v->state != JobState::kCancelled) {
        reply["wall_seconds"] = v->wall_seconds;
      }
    } else if (frame.type != MsgType::kCancel) {
      if (v->state == JobState::kDone) {
        reply["manifest"] = v->result.manifest;
        reply["key"] = v->result.key_string;
      } else if (!v->result.error.empty()) {
        reply["error"] = v->result.error;
      }
    }
    write_frame(fd, static_cast<MsgType>(static_cast<std::uint8_t>(frame.type) | 0x01),
                reply.dump());
    return true;
  }

  common::Json stats_json() const {
    common::Json j = common::Json::object();
    j["server"] = "muxlinkd";
    j["protocol_version"] = static_cast<int>(kProtocolVersion);
    j["uptime_seconds"] = started ? std::chrono::duration<double>(Clock::now() - start_time).count()
                                  : 0.0;
    j["workers"] = opts.workers;
    j["connections_accepted"] = static_cast<std::int64_t>(connections_accepted.load());
    j["requests_served"] = static_cast<std::int64_t>(requests_served.load());
    j["protocol_errors"] = static_cast<std::int64_t>(protocol_errors.load());
    j["jobs_forwarded"] = static_cast<std::int64_t>(jobs_forwarded.load());
    j["wait_requests"] = static_cast<std::int64_t>(wait_requests.load());
    table.add_stats(j);
    return j;
  }
};

DaemonServer::DaemonServer(DaemonOptions opts) {
  try {
    impl_ = std::make_unique<Impl>(std::move(opts));
  } catch (const std::exception& e) {
    throw DaemonError(std::string("cannot open spool: ") + e.what());
  }
}

DaemonServer::~DaemonServer() {
  try {
    stop();
  } catch (...) {
  }
}

void DaemonServer::start() { impl_->start(); }
void DaemonServer::request_drain() { impl_->table.drain(); }
bool DaemonServer::draining() const noexcept { return impl_->table.draining(); }
void DaemonServer::wait_until_idle() { impl_->table.wait_until_idle(); }
void DaemonServer::stop() { impl_->stop(); }
int DaemonServer::tcp_port() const noexcept { return impl_->tcp_port; }
common::Json DaemonServer::stats_json() const { return impl_->stats_json(); }

}  // namespace muxlink::daemon
