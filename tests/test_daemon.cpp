// muxlinkd / MXRPC1 suite (DESIGN.md §13): frame codec hardening, job-spec
// round-trips, and end-to-end daemon contracts — submit/status/result/
// cancel/stats over a real unix socket, worker-count byte-identity of
// result manifests, graceful drain, fault-injected job failure, client
// connect retry, cooperative timeouts, and the TCP transport.
//
// Registered as a single ctest entry: most cases run real (tiny) attack
// jobs, and the heavy budget covers the sanitized build.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "circuitgen/suites.h"
#include "common/fault.h"
#include "daemon/client.h"
#include "daemon/net.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/spool.h"
#include "locking/mux_lock.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"

namespace {

using namespace muxlink;
using namespace muxlink::daemon;

// --- MXRPC1 codec ----------------------------------------------------------

TEST(Protocol, FrameRoundTripAllTypes) {
  const MsgType types[] = {MsgType::kHello,    MsgType::kHelloOk,  MsgType::kSubmit,
                           MsgType::kSubmitOk, MsgType::kStatus,   MsgType::kStatusOk,
                           MsgType::kResult,   MsgType::kResultOk, MsgType::kCancel,
                           MsgType::kCancelOk, MsgType::kStats,    MsgType::kStatsOk,
                           MsgType::kShutdown, MsgType::kShutdownOk, MsgType::kError,
                           MsgType::kWaitResult, MsgType::kWaitResultOk};
  for (const MsgType t : types) {
    const std::string payload = std::string("{\"type\":\"") + type_name(t) + "\"}";
    const std::string wire = encode_frame(t, payload);
    EXPECT_GE(wire.size(), kMinFrameBytes);
    std::size_t need = 0;
    const auto frame = decode_frame(wire, &need);
    ASSERT_TRUE(frame.has_value()) << type_name(t);
    EXPECT_EQ(frame->type, t);
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(need, wire.size());
  }
  // Empty payload round-trips too (STATS / SHUTDOWN requests).
  std::size_t need = 0;
  const auto empty = decode_frame(encode_frame(MsgType::kStats, ""), &need);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->payload.empty());
  EXPECT_TRUE(parse_payload(*empty).is_object());

  // Payloads must be exactly one JSON document — trailing garbage inside a
  // CRC-valid frame is still a protocol violation.
  EXPECT_THROW(parse_payload(Frame{MsgType::kStats, "{}x"}), ProtocolError);
  EXPECT_THROW(parse_payload(Frame{MsgType::kStats, "not json"}), ProtocolError);
}

TEST(Protocol, PrefixNeedsMoreBytes) {
  const std::string wire = encode_frame(MsgType::kSubmit, "{\"a\":1}");
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t need = 0;
    const auto frame = decode_frame(std::string_view(wire).substr(0, cut), &need);
    EXPECT_FALSE(frame.has_value()) << "cut=" << cut;
    EXPECT_GT(need, cut);  // the decoder always asks for more than it has
  }
}

TEST(Protocol, RejectsBadMagicEvenOnShortPrefixes) {
  std::size_t need = 0;
  EXPECT_THROW(decode_frame("GARBAGE-STREAM", &need), ProtocolError);
  // Garbage should fail on its FIRST bytes, not stall awaiting a header.
  EXPECT_THROW(decode_frame("G", &need), ProtocolError);
  EXPECT_THROW(decode_frame("MXRPC9", &need), ProtocolError);
}

TEST(Protocol, RejectsBadVersionUnknownTypeOversizeAndCrc) {
  std::string wire = encode_frame(MsgType::kStatus, "{\"job_id\":\"j1\"}");
  std::size_t need = 0;

  std::string bad_version = wire;
  bad_version[6] = 2;
  EXPECT_THROW(decode_frame(bad_version, &need), ProtocolError);

  std::string bad_type = wire;
  bad_type[7] = 0x3f;
  EXPECT_THROW(decode_frame(bad_type, &need), ProtocolError);

  // Declared length beyond the ceiling is rejected from the header alone —
  // before any payload bytes exist to read.
  std::string oversize = wire.substr(0, kHeaderBytes);
  oversize[8] = static_cast<char>(0xff);
  oversize[9] = static_cast<char>(0xff);
  oversize[10] = static_cast<char>(0xff);
  oversize[11] = static_cast<char>(0x7f);
  EXPECT_THROW(decode_frame(oversize, &need, 1 << 20), ProtocolError);

  std::string bad_crc = wire;
  bad_crc[wire.size() - 1] ^= 0x01;
  EXPECT_THROW(decode_frame(bad_crc, &need), ProtocolError);

  std::string bad_payload = wire;
  bad_payload[kHeaderBytes] ^= 0x01;  // flip a payload byte, keep the length
  EXPECT_THROW(decode_frame(bad_payload, &need), ProtocolError);
}

TEST(Protocol, SocketLevelTruncationAndTrailingBytes) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string wire = encode_frame(MsgType::kStats, "{}");

  // Trailing bytes after a complete frame are never silently consumed: the
  // frame itself decodes, then the surplus breaks framing on the next read.
  std::string extra = wire + "x";
  ASSERT_EQ(::send(sv[0], extra.data(), extra.size(), 0), static_cast<ssize_t>(extra.size()));
  ::shutdown(sv[0], SHUT_WR);
  const auto first = read_frame(sv[1]);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kStats);
  EXPECT_THROW(read_frame(sv[1]), ProtocolError);
  ::close(sv[0]);
  ::close(sv[1]);

  // EOF mid-frame is a truncation, not an orderly close.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_EQ(::send(sv[0], wire.data(), wire.size() - 2, 0),
            static_cast<ssize_t>(wire.size() - 2));
  ::shutdown(sv[0], SHUT_WR);
  EXPECT_THROW(read_frame(sv[1]), ProtocolError);
  ::close(sv[0]);
  ::close(sv[1]);

  // EOF at a frame boundary IS an orderly close (nullopt).
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::shutdown(sv[0], SHUT_WR);
  EXPECT_FALSE(read_frame(sv[1]).has_value());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(Protocol, AddressParsing) {
  EXPECT_EQ(parse_address("unix:/tmp/a.sock").path, "/tmp/a.sock");
  EXPECT_EQ(parse_address("/tmp/a.sock").path, "/tmp/a.sock");
  EXPECT_EQ(parse_address("tcp:127.0.0.1:9000").host, "127.0.0.1");
  EXPECT_EQ(parse_address("tcp:127.0.0.1:9000").port, 9000);
  EXPECT_THROW(parse_address("tcp:nohost"), DaemonError);
  EXPECT_THROW(parse_address("tcp:host:notaport"), DaemonError);
  EXPECT_THROW(parse_address("unix:"), DaemonError);
}

// --- AttackJobSpec JSON contract -------------------------------------------

TEST(JobSpec, JsonRoundTripIsExact) {
  core::AttackJobSpec spec;
  spec.attack = "untangle";
  spec.circuit = "c432";
  spec.bench = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  spec.hops = 2;
  spec.epochs = 7;
  spec.learning_rate = 5e-4;
  spec.max_train_links = 123;
  spec.seed = 42;
  spec.scheme = "dmux";
  spec.use_zoo = true;
  spec.zoo_dir = "/tmp/zoo";
  spec.score_cache = false;
  spec.truth_key = "0101";
  spec.orig_bench = "INPUT(x)\nOUTPUT(y)\ny = BUF(x)\n";
  spec.hd_patterns = 99;
  spec.timeout_seconds = 1.5;
  const core::AttackJobSpec back = core::AttackJobSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json().dump(), spec.to_json().dump());
  EXPECT_EQ(back.attack, "untangle");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.timeout_seconds, 1.5);
}

TEST(JobSpec, RejectsUnknownKeysAttacksAndTypes) {
  core::AttackJobSpec spec;
  spec.bench = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n";
  common::Json j = spec.to_json();
  j["surprise"] = 1;
  EXPECT_THROW(core::AttackJobSpec::from_json(j), std::invalid_argument);

  common::Json bad_attack = spec.to_json();
  bad_attack["attack"] = "sat";
  EXPECT_THROW(core::AttackJobSpec::from_json(bad_attack), std::invalid_argument);

  common::Json bad_type = spec.to_json();
  bad_type["epochs"] = "thirty";
  EXPECT_THROW(core::AttackJobSpec::from_json(bad_type), std::invalid_argument);
}

// --- results spool retention + recovery (DESIGN.md §14) --------------------

class SpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "muxlink-test-spool";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void age(const std::filesystem::path& p, int hours) {
    std::filesystem::last_write_time(
        p, std::filesystem::file_time_type::clock::now() - std::chrono::hours(hours));
  }

  std::filesystem::path dir_;
};

TEST_F(SpoolTest, PutGetFetchRoundTripAndCrashRecovery) {
  {
    ResultSpool spool({dir_.string()});
    spool.put("j1", "payload-1");
    spool.put("j2", "payload-2");
    EXPECT_EQ(spool.get("j1").value_or(""), "payload-1");
    EXPECT_FALSE(spool.get("j9").has_value());
    EXPECT_FALSE(spool.fetched("j1"));
    spool.mark_fetched("j1");
    EXPECT_TRUE(spool.fetched("j1"));
    spool.mark_fetched("j9");  // unknown ids are a no-op, not a marker
    EXPECT_FALSE(spool.fetched("j9"));
    // A rewrite makes the entry unfetched again (new result, new pickup).
    spool.put("j1", "payload-1b");
    EXPECT_FALSE(spool.fetched("j1"));
    const auto s = spool.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.unfetched, 2u);
  }
  // Crash debris: a writer's staging temp and a gc's orphan marker. A fresh
  // spool sweeps both on construction and reports the recovery.
  std::ofstream(dir_ / "j3.json.tmp.999.1") << "torn";
  std::ofstream(dir_ / "gone.fetched").flush();
  ResultSpool recovered({dir_.string()});
  EXPECT_EQ(recovered.stats().recovered_temps, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "j3.json.tmp.999.1"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "gone.fetched"));
  EXPECT_EQ(recovered.ids(), (std::vector<std::string>{"j1", "j2"}));
}

TEST_F(SpoolTest, TtlRemovesOnlyFetchedEntries) {
  SpoolOptions opts{dir_.string()};
  opts.ttl_seconds = 3600;
  ResultSpool spool(opts);
  spool.put("old-fetched", "x");
  spool.put("old-unfetched", "x");
  spool.put("new-fetched", "x");
  spool.mark_fetched("old-fetched");
  spool.mark_fetched("new-fetched");
  age(dir_ / "old-fetched.json", 2);
  age(dir_ / "old-unfetched.json", 2);
  spool.gc();
  // Expired + fetched goes; an unfetched result is pinned however old it is
  // and a fetched one inside the TTL stays.
  EXPECT_EQ(spool.ids(), (std::vector<std::string>{"new-fetched", "old-unfetched"}));
  EXPECT_EQ(spool.stats().gc_removed, 1u);
}

TEST_F(SpoolTest, SizeCapEvictsOldestFetchedFirstAndSparesUnfetched) {
  SpoolOptions opts{dir_.string()};
  opts.max_bytes = 24;  // room for two 10-byte entries, not four
  ResultSpool spool(opts);
  const std::string payload(10, 'x');
  for (const char* id : {"a", "b", "c", "d"}) {
    spool.put(id, payload);
  }
  age(dir_ / "a.json", 4);
  age(dir_ / "b.json", 3);
  age(dir_ / "c.json", 2);
  age(dir_ / "d.json", 1);
  // Nothing is fetched yet: the spool legitimately sits over the cap.
  spool.gc();
  EXPECT_EQ(spool.stats().entries, 4u);
  // Fetch everything: eviction is oldest-first until the cap holds.
  for (const char* id : {"a", "b", "c", "d"}) spool.mark_fetched(id);
  spool.gc();
  EXPECT_EQ(spool.ids(), (std::vector<std::string>{"c", "d"}));
}

// --- end-to-end daemon contracts -------------------------------------------

// Shares one locked circuit (and its reference manifests) across the e2e
// cases so the attack jobs stay tiny and are built once.
class DaemonE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tmp_ = std::filesystem::temp_directory_path() / "muxlink-test-daemon";
    std::filesystem::remove_all(tmp_);
    std::filesystem::create_directories(tmp_);
    const auto nl = circuitgen::make_benchmark("c432", 1.0);
    locking::MuxLockOptions lopts;
    lopts.key_bits = 8;
    lopts.seed = 7;
    const auto locked = locking::lock_dmux(nl, lopts);
    bench_ = netlist::write_bench(locked.netlist);
    truth_key_ = locked.key_string();
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(tmp_); }

  void SetUp() override { common::fault::disarm_all(); }
  void TearDown() override { common::fault::disarm_all(); }

  static core::AttackJobSpec small_job(std::uint64_t seed) {
    core::AttackJobSpec spec;
    spec.attack = "muxlink";
    spec.circuit = "c432";
    spec.bench = bench_;
    spec.hops = 2;
    spec.epochs = 2;
    spec.max_train_links = 400;
    spec.seed = seed;
    spec.scheme = "dmux";
    spec.truth_key = truth_key_;
    return spec;
  }

  static std::string socket_path(const std::string& name) {
    return (tmp_ / (name + ".sock")).string();
  }

  static ClientOptions client_options(const std::string& address) {
    ClientOptions copts;
    copts.address = address;
    return copts;
  }

  static std::filesystem::path tmp_;
  static std::string bench_;
  static std::string truth_key_;
};

std::filesystem::path DaemonE2E::tmp_;
std::string DaemonE2E::bench_;
std::string DaemonE2E::truth_key_;

TEST_F(DaemonE2E, SubmitStatusResultStatsCancelOverUnixSocket) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("e2e");
  dopts.workers = 1;
  dopts.spool_dir = (tmp_ / "spool").string();
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  const std::string id = client.submit(small_job(1));
  EXPECT_EQ(id, "j1");
  const common::Json reply = client.wait_for_result(id);
  EXPECT_EQ(reply.string_or("state", ""), "DONE");
  ASSERT_TRUE(reply.contains("manifest"));
  EXPECT_EQ(reply.at("manifest").string_or("schema", ""), "muxlink.run/v1");
  EXPECT_EQ(reply.string_or("key", "").size(), 8u);

  // The manifest is byte-identical to running the same spec in-process.
  const auto direct = core::run_attack_job(small_job(1));
  EXPECT_EQ(reply.at("manifest").dump_pretty(), direct.manifest.dump_pretty());
  // ... and the spool copy matches too.
  const auto spooled = common::Json::parse([&] {
    std::ifstream is(dopts.spool_dir + "/" + id + ".json");
    return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }());
  EXPECT_EQ(spooled.dump_pretty(), direct.manifest.dump_pretty());

  const common::Json status = client.status(id);
  EXPECT_EQ(status.string_or("state", ""), "DONE");

  const common::Json stats = client.stats();
  EXPECT_EQ(stats.int_or("jobs_submitted", 0), 1);
  EXPECT_EQ(stats.int_or("jobs_completed", 0), 1);
  EXPECT_EQ(stats.int_or("protocol_errors", -1), 0);

  // Unknown job ids are an application error that keeps the connection
  // usable for the next request.
  try {
    client.status("j999");
    FAIL() << "expected DaemonError";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code(), static_cast<int>(ErrorCode::kUnknownJob));
  }
  EXPECT_EQ(client.stats().int_or("jobs_submitted", 0), 1);

  // A malformed frame poisons its connection (server replies ERROR, closes)
  // but the daemon itself keeps serving new connections.
  {
    const int fd = connect_to(parse_address("unix:" + dopts.socket_path));
    // Exactly one header's worth of garbage: the server consumes it all
    // before rejecting, so its close is an orderly FIN rather than a reset.
    const std::string garbage = "NOT-MXRPC1!!";
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    const auto err = read_frame(fd, kDefaultMaxFrameBytes, 5000);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, MsgType::kError);
    EXPECT_FALSE(read_frame(fd, kDefaultMaxFrameBytes, 5000).has_value());  // closed
    ::close(fd);
  }
  EXPECT_GE(client.stats().int_or("protocol_errors", 0), 1);

  // Requests before HELLO are refused.
  {
    const int fd = connect_to(parse_address("unix:" + dopts.socket_path));
    write_frame(fd, MsgType::kStats, "");
    const auto err = read_frame(fd, kDefaultMaxFrameBytes, 5000);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, MsgType::kError);
    EXPECT_EQ(parse_payload(*err).int_or("code", 0),
              static_cast<int>(ErrorCode::kBadRequest));
    ::close(fd);
  }

  // HELLO offering only unknown versions is rejected with the dedicated
  // code, then the server closes.
  {
    const int fd = connect_to(parse_address("unix:" + dopts.socket_path));
    write_frame(fd, MsgType::kHello, "{\"versions\":[2,3]}");
    const auto err = read_frame(fd, kDefaultMaxFrameBytes, 5000);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(parse_payload(*err).int_or("code", 0),
              static_cast<int>(ErrorCode::kUnsupportedVersion));
    ::close(fd);
  }
  server.stop();
}

TEST_F(DaemonE2E, ManifestsAreByteIdenticalAtAnyWorkerCount) {
  // The PR 9 acceptance criterion: the same job set, submitted concurrently,
  // yields byte-identical manifests whether the daemon runs 1, 2 or 8
  // workers (and matches the in-process reference).
  const std::size_t kJobs = 6;
  std::vector<core::AttackJobSpec> specs;
  std::vector<std::string> reference;
  for (std::size_t i = 0; i < kJobs; ++i) {
    specs.push_back(small_job(1 + (i % 3)));
  }
  for (const auto& spec : specs) {
    reference.push_back(core::run_attack_job(spec).manifest.dump_pretty());
  }

  for (const int workers : {1, 2, 8}) {
    DaemonOptions dopts;
    dopts.socket_path = socket_path("workers" + std::to_string(workers));
    dopts.workers = workers;
    DaemonServer server(dopts);
    server.start();

    std::vector<std::string> manifests(kJobs);
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        DaemonClient client(client_options("unix:" + dopts.socket_path));
        std::vector<std::pair<std::size_t, std::string>> mine;
        for (std::size_t i = static_cast<std::size_t>(c); i < kJobs; i += 3) {
          mine.emplace_back(i, client.submit(specs[i]));
        }
        for (const auto& [i, id] : mine) {
          const common::Json reply = client.wait_for_result(id);
          ASSERT_EQ(reply.string_or("state", ""), "DONE") << "workers=" << workers;
          manifests[i] = reply.at("manifest").dump_pretty();
        }
      });
    }
    for (auto& t : clients) t.join();
    server.stop();
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(manifests[i], reference[i]) << "workers=" << workers << " job=" << i;
    }
  }
}

TEST_F(DaemonE2E, DrainCancelsQueuedFinishesRunningRefusesNew) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("drain");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  core::AttackJobSpec slow = small_job(1);
  slow.epochs = 12;  // keep the single worker busy while we drain
  slow.max_train_links = 2000;
  const std::string running_id = client.submit(slow);
  const std::string queued_id = client.submit(small_job(2));
  while (client.status(running_id).string_or("state", "") == "QUEUED") {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  EXPECT_TRUE(client.shutdown().find("draining") != nullptr);
  EXPECT_TRUE(server.draining());

  // New submits are refused with the drain code.
  try {
    client.submit(small_job(3));
    FAIL() << "expected DaemonError(kDraining)";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code(), static_cast<int>(ErrorCode::kDraining));
  }

  // The queued job was cancelled; the running one finishes and stays
  // queryable after the drain.
  EXPECT_EQ(client.status(queued_id).string_or("state", ""), "CANCELLED");
  const common::Json reply = client.wait_for_result(running_id);
  EXPECT_EQ(reply.string_or("state", ""), "DONE");
  server.wait_until_idle();
  server.stop();
}

TEST_F(DaemonE2E, CancelQueuedJobButNotTerminalOnes) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("cancel");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  core::AttackJobSpec slow = small_job(1);
  slow.epochs = 12;
  slow.max_train_links = 2000;
  const std::string running_id = client.submit(slow);
  const std::string queued_id = client.submit(small_job(2));
  EXPECT_EQ(client.cancel(queued_id).string_or("state", ""), "CANCELLED");
  EXPECT_EQ(client.result(queued_id).string_or("state", ""), "CANCELLED");

  const common::Json done = client.wait_for_result(running_id);
  EXPECT_EQ(done.string_or("state", ""), "DONE");
  // Cancelling a finished job is a no-op reporting its terminal state.
  EXPECT_EQ(client.cancel(running_id).string_or("state", ""), "DONE");
  server.stop();
}

TEST_F(DaemonE2E, FaultedJobFailsAndResubmitMatchesCleanRun) {
  // Arm the daemon.job site with `throw`: the worker's job fails exactly
  // once, the daemon survives, and the resubmitted job produces a manifest
  // byte-identical to a clean in-process run (the ci.sh drill does the same
  // with `kill` against a real muxlinkd process).
  DaemonOptions dopts;
  dopts.socket_path = socket_path("fault");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  common::fault::arm("daemon.job", 1, common::fault::Action::kThrow);
  const std::string failed_id = client.submit(small_job(5));
  const common::Json failed = client.wait_for_result(failed_id);
  EXPECT_EQ(failed.string_or("state", ""), "FAILED");
  EXPECT_NE(failed.string_or("error", "").find("daemon.job"), std::string::npos);
  EXPECT_EQ(client.stats().int_or("jobs_failed", 0), 1);

  common::fault::disarm_all();
  const std::string retry_id = client.submit(small_job(5));
  const common::Json retried = client.wait_for_result(retry_id);
  ASSERT_EQ(retried.string_or("state", ""), "DONE");
  const auto direct = core::run_attack_job(small_job(5));
  EXPECT_EQ(retried.at("manifest").dump_pretty(), direct.manifest.dump_pretty());
  server.stop();
}

TEST_F(DaemonE2E, ClientRetriesUntilLateServerBinds) {
  const std::string path = socket_path("late");
  std::atomic<bool> done{false};
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    DaemonOptions dopts;
    dopts.socket_path = path;
    dopts.workers = 1;
    DaemonServer server(dopts);
    server.start();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.stop();
  });
  ClientOptions copts = client_options("unix:" + path);
  copts.connect_attempts = 20;
  copts.retry_initial_ms = 25;
  DaemonClient client(std::move(copts));
  EXPECT_EQ(client.stats().string_or("server", ""), "muxlinkd");  // after retries
  done.store(true);
  late.join();

  // With retries exhausted and nobody listening, connect fails as a
  // DaemonError (CLI exit 6).
  ClientOptions fail_opts = client_options("unix:" + socket_path("nobody"));
  fail_opts.connect_attempts = 2;
  fail_opts.retry_initial_ms = 1;
  DaemonClient dead(std::move(fail_opts));
  EXPECT_THROW(dead.stats(), DaemonError);
}

TEST_F(DaemonE2E, CooperativeTimeoutReportsTimeoutState) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("timeout");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  core::AttackJobSpec spec = small_job(1);
  spec.timeout_seconds = 1e-9;  // expires before (or during) the run
  const std::string id = client.submit(spec);
  const common::Json reply = client.wait_for_result(id);
  EXPECT_EQ(reply.string_or("state", ""), "TIMEOUT");
  EXPECT_FALSE(reply.contains("manifest"));  // late results are discarded
  EXPECT_EQ(client.stats().int_or("jobs_timeout", 0), 1);
  server.stop();
}

TEST_F(DaemonE2E, QueueBoundRefusesExcessSubmits) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("queuefull");
  dopts.workers = 1;
  dopts.max_queue = 1;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  core::AttackJobSpec slow = small_job(1);
  slow.epochs = 12;
  slow.max_train_links = 2000;
  const std::string running_id = client.submit(slow);
  while (client.status(running_id).string_or("state", "") == "QUEUED") {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string queued_id = client.submit(small_job(2));  // fills the queue
  try {
    client.submit(small_job(3));
    FAIL() << "expected DaemonError(kQueueFull)";
  } catch (const DaemonError& e) {
    EXPECT_EQ(e.code(), static_cast<int>(ErrorCode::kQueueFull));
  }
  EXPECT_EQ(client.wait_for_result(queued_id).string_or("state", ""), "DONE");
  server.stop();
}

TEST_F(DaemonE2E, TcpLoopbackRoundTrip) {
  DaemonOptions dopts;
  dopts.tcp_listen = "127.0.0.1:0";  // ephemeral port
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  DaemonClient client(
      client_options("tcp:127.0.0.1:" + std::to_string(server.tcp_port())));
  const std::string id = client.submit(small_job(1));
  const common::Json reply = client.wait_for_result(id);
  ASSERT_EQ(reply.string_or("state", ""), "DONE");
  // Transport never leaks into the result: TCP-served manifests match the
  // in-process reference bytes.
  const auto direct = core::run_attack_job(small_job(1));
  EXPECT_EQ(reply.at("manifest").dump_pretty(), direct.manifest.dump_pretty());
  server.stop();
}

// --- caps, long-poll and forwarded envelopes (DESIGN.md §14) ----------------

TEST_F(DaemonE2E, CapsNegotiationWaitResultAndForwardedSubmit) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("caps");
  dopts.workers = 1;
  dopts.spool_dir = (tmp_ / "caps-spool").string();
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  EXPECT_TRUE(client.has_cap("wait_result"));
  EXPECT_TRUE(client.has_cap("forwarded"));
  EXPECT_FALSE(client.has_cap("no_such_cap"));

  // A forwarded SUBMIT carries provenance in the envelope and the spec in
  // "spec"; the result is byte-identical to a plain in-process run.
  common::Json prov = common::Json::object();
  prov["coordinator"] = "muxlink-coord";
  prov["origin_id"] = "f1";
  prov["attempt"] = 1;
  const std::string id = client.submit_forwarded(small_job(1), prov);

  // WAIT_RESULT long-poll: one roundtrip blocks server-side until the job
  // is terminal (0 = let the server pick its cap).
  const common::Json reply = client.wait_result(id, 0);
  ASSERT_EQ(reply.string_or("state", ""), "DONE");
  const auto direct = core::run_attack_job(small_job(1));
  EXPECT_EQ(reply.at("manifest").dump_pretty(), direct.manifest.dump_pretty());

  const common::Json stats = client.stats();
  EXPECT_EQ(stats.int_or("jobs_forwarded", 0), 1);
  EXPECT_GE(stats.int_or("wait_requests", 0), 1);
  server.stop();
}

TEST_F(DaemonE2E, WaitResultDeadlineReturnsNonTerminalStateForReissue) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("longpoll");
  dopts.workers = 1;
  dopts.wait_result_cap_ms = 200;
  DaemonServer server(dopts);
  server.start();

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  const std::string first = client.submit(small_job(1));
  const std::string queued = client.submit(small_job(2));
  // The second job sits behind the first on the single worker; a 1 ms
  // long-poll must come back with a non-crashing, possibly non-terminal
  // state ("re-issue" semantics), never hang for the job's duration.
  const common::Json early = client.wait_result(queued, 1);
  EXPECT_FALSE(early.string_or("state", "").empty());
  // Re-issuing with the server-side cap eventually completes both.
  EXPECT_EQ(client.wait_for_result(first).string_or("state", ""), "DONE");
  EXPECT_EQ(client.wait_for_result(queued).string_or("state", ""), "DONE");
  server.stop();
}

TEST_F(DaemonE2E, V1PeerWithoutCapsIsServedByPollingAndRefusedNewMessages) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("v1peer");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  // A hand-rolled peer that offers no caps is still served plain SUBMIT
  // and STATUS, but the server refuses the cap-gated WAIT_RESULT and
  // forwarded SUBMIT with BAD_REQUEST, not silence.
  const int fd = connect_to(parse_address("unix:" + dopts.socket_path));
  const auto request = [&](MsgType type, const std::string& payload) {
    write_frame(fd, type, payload);
    return read_frame(fd, kDefaultMaxFrameBytes, 5000);
  };
  const auto hello = request(MsgType::kHello, "{\"versions\":[1]}");
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, MsgType::kHelloOk);
  // HELLO_OK without offered caps must not echo a caps list.
  EXPECT_FALSE(parse_payload(*hello).contains("caps"));

  const std::string spec = small_job(1).to_json().dump();
  const auto submitted = request(MsgType::kSubmit, spec);
  ASSERT_TRUE(submitted.has_value());
  ASSERT_EQ(submitted->type, MsgType::kSubmitOk);
  const std::string id = parse_payload(*submitted).string_or("job_id", "");
  ASSERT_FALSE(id.empty());
  const auto status = request(MsgType::kStatus, "{\"job_id\":\"" + id + "\"}");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->type, MsgType::kStatusOk);

  const auto expect_bad_request = [&](MsgType type, const std::string& payload) {
    const auto err = request(type, payload);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, MsgType::kError);
    EXPECT_EQ(parse_payload(*err).int_or("code", 0), static_cast<int>(ErrorCode::kBadRequest));
  };
  expect_bad_request(MsgType::kWaitResult, "{\"job_id\":\"" + id + "\",\"timeout_ms\":1}");
  expect_bad_request(MsgType::kSubmit, "{\"spec\":" + spec + ",\"forwarded\":{}}");
  ::close(fd);
  server.stop();
}

TEST_F(DaemonE2E, UntangleJobsServeTooAndLiveSocketIsRefused) {
  DaemonOptions dopts;
  dopts.socket_path = socket_path("untangle");
  dopts.workers = 1;
  DaemonServer server(dopts);
  server.start();

  // A second daemon on the same socket path must refuse to start.
  DaemonOptions clash = dopts;
  DaemonServer second(clash);
  EXPECT_THROW(second.start(), DaemonError);

  DaemonClient client(client_options("unix:" + dopts.socket_path));
  core::AttackJobSpec spec = small_job(3);
  spec.attack = "untangle";
  const std::string id = client.submit(spec);
  const common::Json reply = client.wait_for_result(id);
  ASSERT_EQ(reply.string_or("state", ""), "DONE");
  EXPECT_EQ(reply.at("manifest").string_or("tool", ""), "muxlink untangle");
  EXPECT_TRUE(reply.at("manifest").at("results").contains("routing_queries"));
  const auto direct = core::run_attack_job(spec);
  EXPECT_EQ(reply.at("manifest").dump_pretty(), direct.manifest.dump_pretty());
  server.stop();
}

}  // namespace
