// muxlink-bench — the repo's perf trackers in one program. Each leg runs
// one measurement, prints one muxlink.run/v1 manifest line (tool
// "bench_<leg>", see common/run_manifest.h) and exits 3 when one of its
// gates fails. Registered in CMake but NOT in ctest: these are timing runs.
//
//   muxlink-bench pipeline  the attack at 1 and N threads (N = hardware
//                           threads), the pair run 3 times: median per-stage
//                           times and thread_speedup. Gate: every run's keys
//                           and scores bit-identical; median thread_speedup
//                           >= 1.8 when N >= 4. On a 1-core host the N-thread
//                           runs are skipped and thread_speedup_skipped = 1.
//   muxlink-bench kernels   single-core kernel microbench: a 64-pattern
//                           simulator block, one synth::cleanup pass,
//                           subgraph extraction at h = 1..4 (arena) and at
//                           h = 3 (naive oracle), propagate, matmuls (scalar
//                           vs dispatched), tanh and Adam; the 1-D conv /
//                           dense stack's per-call loops vs dot_rows /
//                           axpy_rows at the DGCNN's shapes; and the serial
//                           reduce + Adam vs the fused Dgcnn::step (the one
//                           figure run at N threads). Each figure is the
//                           median of 5 timed repeats after a warm-up.
//                           Gate: extract_speedup >= 1.5, plus on avx2:
//                           at_b_accum >= 4, tanh >= 2, adam >= 1.8
//                           (dispatched over scalar).
//   muxlink-bench serving   cold train, zoo-served warm rerun, and a rerun
//                           with the score cache cleared (DESIGN.md §11).
//                           Gate: all three bit-identical, both reruns
//                           served from the zoo, warm_speedup >= 5.
//   muxlink-bench daemon    a warm job batch run sequentially in-process,
//                           then by --clients concurrent clients against an
//                           in-process muxlinkd (DESIGN.md §13).
//   muxlink-bench fleet     the same batch fanned out by a FleetCoordinator
//                           over --backends in-process muxlinkd (§14).
//                           Gate (daemon, fleet): every served manifest
//                           byte-identical to its sequential twin.
//
// Flags; a leg rejects the flags it does not use:
//   --circuit c880 --report F                   every leg
//   --seed 1 --key-bits 32 --links 2000         pipeline, serving, daemon,
//   --epochs E                                  fleet (E = 20, 12 served)
//   --min-ms 300                                kernels: timed ms per figure
//   --jobs 6 --distinct 2 --workers W           daemon, fleet
//   --clients 3                                 daemon (W = 4)
//   --backends 2                                fleet (W = 2)
//
// Every leg but kernels attacks the circuit dmux-locked at --key-bits.
// MUXLINK_SIMD=auto|avx2|scalar picks the kernel table. --report also
// writes the manifest pretty-printed to F. Zoo and sockets live in one
// mkdtemp directory per run, removed on every exit.
//
// Exit: 0 ok, 1 usage, 2 error, 3 gate.
#include <stdlib.h>

#include <cerrno>
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuitgen/suites.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "fleet/coordinator.h"
#include "gnn/dgcnn.h"
#include "gnn/encoding.h"
#include "gnn/simd.h"
#include "graph/circuit_graph.h"
#include "graph/subgraph.h"
#include "graph/subgraph_naive.h"
#include "locking/mux_lock.h"
#include "muxlink/attack.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"
#include "sim/simulator.h"
#include "synth/synthesis.h"
#include "tools/cli_args.h"
#include "zoo/registry.h"

namespace {

using namespace muxlink;
using Clock = std::chrono::steady_clock;
using Gates = std::vector<std::string>;  // one message per failed gate

constexpr double kSpeedupFloor = 1.8;  // pipeline, median, at >= 4 threads
constexpr std::size_t kSpeedupFloorThreads = 4;
constexpr int kPipelineRuns = 3;       // pipeline: 1-thread/N-thread pairs
constexpr int kRepeats = 5;            // kernels: timed repeats per figure
constexpr double kWarmSpeedupFloor = 5.0;  // serving
constexpr int kHops = 3;                   // kernels: subgraph radius
constexpr int kRows = 64;                  // kernels: matmul rows
constexpr int kSortK = 45;                 // kernels: SortPooling k of the c880 attack
constexpr std::size_t kStepSlots = 8;      // kernels: gradient slots of a 32-sample batch

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Flag values; parse_params holds the defaults.
struct Params {
  std::string circuit;
  std::uint64_t seed = 0;
  std::optional<std::string> report;
  std::size_t key_bits = 0;
  int epochs = 0;
  std::size_t links = 0;
  double min_seconds = 0.0;
  std::size_t jobs = 0;
  std::size_t distinct = 0;
  std::size_t clients = 0;
  std::size_t backends = 0;
  int workers = 0;
};

// What a leg measures on: its parameters, the circuit (dmux-locked for
// every leg but kernels) and the run's private scratch directory.
struct Context {
  const Params& p;
  const netlist::Netlist& circuit;
  const std::filesystem::path& scratch;
};

struct Leg {
  std::string_view name;
  std::vector<std::string> flags;  // beyond --circuit, --report and the attack flags
  bool locks;  // attacks the dmux-locked circuit; takes --seed/--key-bits/--epochs/--links
  int default_epochs;
  int default_workers;
  Gates (*run)(const Context&, common::RunManifest&);
};

// One private directory per run, so concurrent runs never share or delete
// each other's zoo and sockets; removed however the run ends.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "muxlink-bench-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp '" + tmpl + "': " + std::strerror(errno));
    }
    path_ = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

core::MuxLinkOptions attack_options(const Params& p) {
  core::MuxLinkOptions opts;
  opts.epochs = p.epochs;
  opts.learning_rate = 1e-3;
  opts.max_train_links = p.links;
  opts.seed = p.seed;
  return opts;
}

bool same_scores(const core::MuxLinkResult& a, const core::MuxLinkResult& b) {
  if (a.key != b.key || a.likelihoods.size() != b.likelihoods.size()) return false;
  for (std::size_t i = 0; i < a.likelihoods.size(); ++i) {
    if (a.likelihoods[i].score_a != b.likelihoods[i].score_a ||
        a.likelihoods[i].score_b != b.likelihoods[i].score_b) {
      return false;
    }
  }
  return true;
}

// --- pipeline --------------------------------------------------------------

core::MuxLinkResult run_attack(const netlist::Netlist& locked, const core::MuxLinkOptions& opts,
                               std::size_t threads) {
  common::set_num_threads(threads);
  return core::MuxLinkAttack(opts).run(locked);
}

Gates run_pipeline(const Context& ctx, common::RunManifest& m) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t threads = hw > 0 ? hw : 4;
  // With one hardware core an N-thread run measures scheduler overhead,
  // not parallel speedup; skip it and say so in the manifest.
  const bool skip_threads = hw <= 1;
  const core::MuxLinkOptions opts = attack_options(ctx.p);

  // The pair runs kPipelineRuns times, so one run on a noisy host can
  // neither fail nor pass the floor; stages and speedup are medians.
  std::vector<core::MuxLinkResult> base, fast;
  for (int r = 0; r < kPipelineRuns; ++r) {
    base.push_back(run_attack(ctx.circuit, opts, 1));
    if (!skip_threads) fast.push_back(run_attack(ctx.circuit, opts, threads));
  }
  const auto add_stages = [&](const std::vector<core::MuxLinkResult>& runs,
                              const std::string& suffix) {
    const auto stage = [&](double core::MuxLinkResult::*field) {
      std::vector<double> v;
      for (const auto& r : runs) v.push_back(r.*field);
      return median(v);
    };
    m.add_stage("sample" + suffix, stage(&core::MuxLinkResult::sample_seconds));
    m.add_stage("train" + suffix, stage(&core::MuxLinkResult::train_seconds));
    m.add_stage("score" + suffix, stage(&core::MuxLinkResult::score_seconds));
    m.add_stage("total" + suffix, stage(&core::MuxLinkResult::total_seconds));
  };
  m.threads = static_cast<int>(skip_threads ? 1 : threads);
  m.extra["runs"] = kPipelineRuns;
  add_stages(base, "_1");

  Gates gates;
  bool identical = true;
  for (int r = 0; r < kPipelineRuns; ++r) {
    identical = identical && same_scores(base[0], base[r]);
    if (!skip_threads) identical = identical && same_scores(base[0], fast[r]);
  }
  if (!identical) gates.push_back("the runs' keys and scores are not bit-identical");
  if (!skip_threads) {
    std::vector<double> speedups;
    for (int r = 0; r < kPipelineRuns; ++r) {
      speedups.push_back(fast[r].total_seconds > 0.0
                             ? base[r].total_seconds / fast[r].total_seconds
                             : 0.0);
    }
    const double speedup = median(speedups);
    add_stages(fast, "_n");
    m.add_result("thread_speedup", speedup);
    m.add_result("bit_identical", identical ? 1.0 : 0.0);
    if (threads >= kSpeedupFloorThreads && speedup < kSpeedupFloor) {
      gates.push_back("median thread_speedup " + std::to_string(speedup) + " at " +
                      std::to_string(threads) + " threads is below the 1.8x floor");
    }
  } else {
    m.extra["thread_speedup_skip_reason"] =
        std::string("single hardware core: no parallel speedup to measure");
  }
  m.add_result("thread_speedup_skipped", skip_threads ? 1.0 : 0.0);
  m.add_result("training_links", static_cast<double>(base[0].training_links));
  return gates;
}

// --- kernels ---------------------------------------------------------------

// Times kernel figures. Each figure is the median seconds per call of
// kRepeats timed repeats. An untimed warm-up sizes the repeat first: it
// doubles the batch until one batch takes min_seconds / kRepeats, so a
// figure costs about 1.4x min_seconds. Tracks the largest per-figure
// (max - min) / median spread for the manifest.
class Timer {
 public:
  explicit Timer(double min_seconds) : min_seconds_(min_seconds) {}

  template <typename Fn>
  double per_call(Fn&& fn) {
    const double target = min_seconds_ / kRepeats;
    std::size_t batch = 1;
    for (;;) {
      const double elapsed = run_batch(fn, batch);
      if (elapsed >= target) break;
      batch = elapsed <= 0.0 ? batch * 8 : batch * 2;
    }
    std::array<double, kRepeats> t;
    for (double& x : t) x = run_batch(fn, batch) / static_cast<double>(batch);
    std::sort(t.begin(), t.end());
    const double mid = t[kRepeats / 2];
    if (mid > 0.0) max_spread_ = std::max(max_spread_, (t.back() - t.front()) / mid);
    return mid;
  }

  double max_spread() const noexcept { return max_spread_; }

 private:
  template <typename Fn>
  static double run_batch(Fn& fn, std::size_t batch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn(i);
    return seconds_since(t0);
  }

  double min_seconds_;
  double max_spread_ = 0.0;
};

gnn::Matrix random_matrix(int r, int c, std::mt19937_64& rng) {
  gnn::Matrix m(r, c);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j) m.at(i, j) = u(rng);
  return m;
}

gnn::AlignedVec random_vec(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  gnn::AlignedVec v(n);
  for (double& x : v) x = u(rng);
  return v;
}

// One matmul shape timed on the scalar and the dispatched table; records
// <name>_{scalar,dispatch}_ns and the dispatch speedup, which it returns.
template <typename Scalar, typename Dispatch>
double time_matmul(common::RunManifest& m, Timer& timer, const std::string& name,
                   Scalar&& scalar, Dispatch&& dispatch) {
  const double scalar_ns = 1e9 * timer.per_call(scalar);
  const double dispatch_ns = 1e9 * timer.per_call(dispatch);
  const double speedup = dispatch_ns > 0.0 ? scalar_ns / dispatch_ns : 0.0;
  m.add_result(name + "_scalar_ns", scalar_ns);
  m.add_result(name + "_dispatch_ns", dispatch_ns);
  m.add_result(name + "_dispatch_speedup", speedup);
  return speedup;
}

// Single-threaded on purpose: per-core kernel numbers, orthogonal to the
// thread scaling the pipeline leg measures.
Gates run_kernels(const Context& ctx, common::RunManifest& m) {
  Timer timer(ctx.p.min_seconds);
  common::set_num_threads(1);
  m.threads = 1;

  const gnn::KernelTable& kn = gnn::kernels();
  const gnn::KernelTable& sc = gnn::scalar_kernels();

  const auto g = graph::build_circuit_graph(ctx.circuit);
  const auto edges = g.all_edges();
  if (edges.empty()) throw std::runtime_error("kernels: circuit has no edges");
  graph::SubgraphOptions sgopts;
  sgopts.hops = kHops;

  // volatile sink defeats dead-code elimination without touching results.
  volatile std::size_t sink = 0;

  // --- simulation and cleanup on the whole circuit -----------------------
  const sim::Simulator simulator(ctx.circuit);
  sim::PatternGenerator patterns(ctx.p.seed);
  const auto block = patterns.next_block(ctx.circuit.inputs().size());
  m.add_result("sim_block_ns", 1e9 * timer.per_call([&](std::size_t) {
                                 sink = sink + simulator.run(block).size();
                               }));
  m.add_result("cleanup_ns", 1e9 * timer.per_call([&](std::size_t) {
                               sink = sink + synth::cleanup(ctx.circuit).num_gates();
                             }));

  // --- extraction: arena fast path at h = 1..4 (Fig. 10's runtime knob),
  // and the naive reference at h = kHops -----------------------------------
  const auto extract_s = [&](int hops, bool naive) {
    graph::SubgraphOptions opts;
    opts.hops = hops;
    return timer.per_call([&](std::size_t i) {
      const graph::Link e = edges[i % edges.size()];
      sink = sink + (naive ? graph::extract_enclosing_subgraph_naive(g, e, opts)
                           : graph::extract_enclosing_subgraph(g, e, opts))
                        .num_nodes();
    });
  };
  double fast_s = 0.0;
  for (int h = 1; h <= 4; ++h) {
    const double sec = extract_s(h, false);
    m.add_result("extract_h" + std::to_string(h) + "_ns", 1e9 * sec);
    if (h == kHops) fast_s = sec;
  }
  const double naive_s = extract_s(kHops, true);
  const double fast_lps = 1.0 / fast_s;
  const double naive_lps = 1.0 / naive_s;
  m.add_result("extract_links_per_sec", fast_lps);
  m.add_result("extract_naive_links_per_sec", naive_lps);
  m.add_result("extract_speedup", naive_lps > 0.0 ? fast_lps / naive_lps : 0.0);

  // --- propagate on a real encoded subgraph (dispatched table) -----------
  const auto sample = gnn::encode_subgraph(
      graph::extract_enclosing_subgraph(g, edges[edges.size() / 2], sgopts), kHops, 1);
  const int n = sample.x.rows;
  std::mt19937_64 rng(ctx.p.seed);
  const gnn::Matrix h32 = random_matrix(n, 32, rng);
  gnn::Matrix prop_out;
  m.add_result("propagate_ns", 1e9 * timer.per_call([&](std::size_t) {
                                 kn.propagate(sample, h32, prop_out);
                               }));
  gnn::Matrix propt_out;
  m.add_result("propagate_transpose_ns", 1e9 * timer.per_call([&](std::size_t) {
                                           kn.propagate_transpose(sample, h32, propt_out);
                                         }));

  // --- matmul kernels on DGCNN shapes ------------------------------------
  // Forward conv-1: (rows x feat) * (feat x 32); feat = encoding width.
  const int feat = gnn::feature_dim_for_hops(kHops);
  const gnn::Matrix a_fwd = random_matrix(kRows, feat, rng);
  const gnn::Matrix w_fwd = random_matrix(feat, 32, rng);
  gnn::Matrix out;
  time_matmul(
      m, timer, "matmul", [&](std::size_t) { sc.matmul(a_fwd, w_fwd, out); },
      [&](std::size_t) { kn.matmul(a_fwd, w_fwd, out); });

  // Weight gradient: (rows x feat)^T * (rows x 32) accumulated into feat x 32.
  const gnn::Matrix b_grad = random_matrix(kRows, 32, rng);
  gnn::Matrix acc(feat, 32);
  const double atb_speedup = time_matmul(
      m, timer, "at_b_accum", [&](std::size_t) { sc.matmul_at_b_accum(a_fwd, b_grad, acc); },
      [&](std::size_t) { kn.matmul_at_b_accum(a_fwd, b_grad, acc); });

  // Input gradient: (rows x 32) * (feat x 32)^T.
  time_matmul(
      m, timer, "a_bt", [&](std::size_t) { sc.matmul_a_bt(b_grad, w_fwd, out); },
      [&](std::size_t) { kn.matmul_a_bt(b_grad, w_fwd, out); });

  // --- element-wise training loops, dispatched vs scalar -----------------
  // Sized like a conv activation block (rows x 128). tanh mutates in place,
  // so each call restores the buffer first; the memcpy cost is identical on
  // both sides of the comparison.
  const std::size_t elems = static_cast<std::size_t>(kRows) * 128;
  const std::size_t bytes = elems * sizeof(double);
  const gnn::AlignedVec tanh_src = random_vec(elems, rng);
  gnn::AlignedVec buf(elems);
  const double tanh_scalar_s = timer.per_call([&](std::size_t) {
    std::memcpy(buf.data(), tanh_src.data(), bytes);
    sc.tanh_inplace(buf.data(), elems);
  });
  const double tanh_dispatch_s = timer.per_call([&](std::size_t) {
    std::memcpy(buf.data(), tanh_src.data(), bytes);
    kn.tanh_inplace(buf.data(), elems);
  });

  // The kernel zeroes g, so m/v decay across calls; refreshing the gradient
  // every 256 calls keeps them far from denormal territory (m decays ~10x
  // slower than that range per refresh window) while keeping the memcpy
  // amortized out of the per-call number.
  const gnn::AlignedVec grad_src = random_vec(elems, rng);
  gnn::AlignedVec w = random_vec(elems, rng);
  gnn::AlignedVec gr(elems), am(elems), av(elems);
  const double adam_scalar_s = timer.per_call([&](std::size_t i) {
    if (i % 256 == 0) std::memcpy(gr.data(), grad_src.data(), bytes);
    sc.adam_update(w.data(), gr.data(), am.data(), av.data(), elems, 1e-3, 0.9, 0.999, 1.0);
  });
  const double adam_dispatch_s = timer.per_call([&](std::size_t i) {
    if (i % 256 == 0) std::memcpy(gr.data(), grad_src.data(), bytes);
    kn.adam_update(w.data(), gr.data(), am.data(), av.data(), elems, 1e-3, 0.9, 0.999, 1.0);
  });
  const double tanh_speedup = tanh_dispatch_s > 0.0 ? tanh_scalar_s / tanh_dispatch_s : 0.0;
  const double adam_speedup = adam_dispatch_s > 0.0 ? adam_scalar_s / adam_dispatch_s : 0.0;
  m.add_result("tanh_scalar_ns", 1e9 * tanh_scalar_s);
  m.add_result("tanh_dispatch_ns", 1e9 * tanh_dispatch_s);
  m.add_result("tanh_dispatch_speedup", tanh_speedup);
  m.add_result("adam_scalar_ns", 1e9 * adam_scalar_s);
  m.add_result("adam_dispatch_ns", 1e9 * adam_dispatch_s);
  m.add_result("adam_dispatch_speedup", adam_speedup);

  // --- 1-D conv / dense stack: per-call loops vs multi-row kernels ------
  // Shapes of the default DGCNN head at k = kSortK: conv1 reads k frames of
  // cat = 97, conv2 reads (k/2 - 4) overlapping 80-wide windows of the
  // packed 16-wide pooled rows, dense1 reads the 576-wide flattened conv2.
  const gnn::DgcnnConfig head;
  struct RowsShape {
    std::string name;
    std::size_t m, nout, n, ldx, ldw;
  };
  const std::size_t cat = 97;  // 32 + 32 + 32 + 1 graph-conv channels
  const std::size_t ch1 = head.conv1d_channels1, ch2 = head.conv1d_channels2;
  const std::size_t conv2_len = kSortK / 2 - head.conv1d_kernel2 + 1;
  const std::size_t window = static_cast<std::size_t>(head.conv1d_kernel2) * ch1;
  const std::size_t flat = conv2_len * ch2;
  const RowsShape row_shapes[] = {
      {"conv1", kSortK, ch1, cat, 100, 100},
      {"conv2", conv2_len, ch2, window, ch1, window},
      {"dense1", 1, static_cast<std::size_t>(head.dense_units), flat, flat, flat},
  };
  for (const RowsShape& sh : row_shapes) {
    const auto x = random_vec((sh.m - 1) * sh.ldx + sh.n, rng);
    const auto w = random_vec((sh.nout - 1) * sh.ldw + sh.n, rng);
    const auto init = random_vec(sh.nout, rng);
    std::vector<double> o(sh.m * sh.nout);
    const double loop_s = timer.per_call([&](std::size_t) {
      for (std::size_t i = 0; i < sh.m; ++i) {
        for (std::size_t j = 0; j < sh.nout; ++j) {
          o[i * sh.nout + j] =
              kn.dot_acc(init[j], w.data() + j * sh.ldw, x.data() + i * sh.ldx, sh.n);
        }
      }
    });
    const double rows_s = timer.per_call([&](std::size_t) {
      kn.dot_rows(sh.m, sh.nout, sh.n, x.data(), sh.ldx, w.data(), sh.ldw, init.data(), o.data(),
                  sh.nout);
    });
    m.add_result(sh.name + "_dot_loop_ns", 1e9 * loop_s);
    m.add_result(sh.name + "_dot_rows_ns", 1e9 * rows_s);
    m.add_result(sh.name + "_dot_rows_speedup", rows_s > 0.0 ? loop_s / rows_s : 0.0);
  }
  // The backward input-gradient shapes, with half the alphas zero (ReLU /
  // dropout): conv1 ds (k rows x 16 sources), conv2 dm (overlapping rows at
  // stride 16), dense1 df (one row x 128 sources).
  struct AxpyShape {
    std::string name;
    std::size_t nq, np, n, ldx, ldy;
  };
  const AxpyShape axpy_shapes[] = {
      {"conv1", kSortK, ch1, cat, 100, 100},
      {"conv2", conv2_len, ch2, window, window, ch1},
      {"dense1", 1, static_cast<std::size_t>(head.dense_units), flat, flat, flat},
  };
  for (const AxpyShape& sh : axpy_shapes) {
    const auto x = random_vec((sh.np - 1) * sh.ldx + sh.n, rng);
    auto alpha = random_vec(sh.nq * sh.np, rng);
    for (std::size_t i = 0; i < alpha.size(); i += 2) alpha[i] = 0.0;
    auto y = random_vec((sh.nq - 1) * sh.ldy + sh.n, rng);
    const double loop_s = timer.per_call([&](std::size_t) {
      for (std::size_t q = 0; q < sh.nq; ++q) {
        for (std::size_t p = 0; p < sh.np; ++p) {
          const double a = alpha[q * sh.np + p];
          if (a != 0.0) kn.axpy(a, x.data() + p * sh.ldx, y.data() + q * sh.ldy, sh.n);
        }
      }
    });
    const double rows_s = timer.per_call([&](std::size_t) {
      kn.axpy_rows(sh.nq, sh.np, sh.n, alpha.data(), 1, sh.np, x.data(), sh.ldx, y.data(), sh.ldy);
    });
    m.add_result(sh.name + "_axpy_loop_ns", 1e9 * loop_s);
    m.add_result(sh.name + "_axpy_rows_ns", 1e9 * rows_s);
    m.add_result(sh.name + "_axpy_rows_speedup", rows_s > 0.0 ? loop_s / rows_s : 0.0);
  }

  // --- optimizer step: serial reduce + Adam vs the fused parallel step ---
  // A 32-sample batch's kStepSlots gradient slots over the full model. The
  // serial side is the per-slot add_gradients + zero + adam_step sequence
  // at one thread; the fused side is Dgcnn::step at N = hardware threads.
  // Slots are refilled every 256 calls so the Adam moments stay normal.
  gnn::DgcnnConfig step_cfg;
  step_cfg.sortpool_k = kSortK;
  gnn::Dgcnn model(feat, step_cfg);
  std::vector<std::vector<gnn::Matrix>> slots(kStepSlots, model.make_gradient_buffers());
  std::vector<std::vector<gnn::Matrix>> slot_src = slots;
  for (auto& slot : slot_src) {
    for (gnn::Matrix& g : slot) g = random_matrix(g.rows, g.cols, rng);
  }
  const auto refill = [&](std::size_t i) {
    if (i % 256 == 0) slots = slot_src;
  };
  const double step_serial_s = timer.per_call([&](std::size_t i) {
    refill(i);
    for (auto& slot : slots) {
      model.add_gradients(slot);
      for (gnn::Matrix& g : slot) g.zero();
    }
    model.adam_step(32);
  });
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t step_threads = hw > 0 ? hw : 1;
  common::set_num_threads(step_threads);
  const double step_fused_s = timer.per_call([&](std::size_t i) {
    refill(i);
    model.step(slots, 32);
  });
  common::set_num_threads(1);
  m.add_result("step_serial_ns", 1e9 * step_serial_s);
  m.add_result("step_fused_ns", 1e9 * step_fused_s);
  m.add_result("step_fused_speedup", step_fused_s > 0.0 ? step_serial_s / step_fused_s : 0.0);
  m.extra["step_threads"] = static_cast<std::int64_t>(step_threads);
  m.extra["step_parameters"] = static_cast<std::int64_t>(model.num_parameters());
  m.extra["sortpool_k"] = kSortK;

  m.extra["hops"] = kHops;
  m.extra["edges"] = static_cast<std::int64_t>(edges.size());
  m.extra["subgraph_nodes"] = n;
  m.extra["matmul_rows"] = kRows;
  m.extra["matmul_feat"] = feat;
  m.extra["elementwise_elems"] = static_cast<std::int64_t>(elems);
  m.extra["dispatch_isa"] = std::string(kn.isa);
  m.extra["repeats"] = kRepeats;
  m.add_result("max_spread", timer.max_spread());

  // The adam floor sits below the >= 2x measured in BENCH_kernels.json to
  // leave headroom for timer noise on shared hosts (it is sqrt/div-bound).
  Gates gates;
  if (fast_lps < 1.5 * naive_lps) gates.push_back("extract_speedup < 1.5");
  if (std::string_view(kn.isa) == "avx2") {
    if (atb_speedup < 4.0) gates.push_back("avx2 at_b_accum_dispatch_speedup < 4.0");
    if (tanh_speedup < 2.0) gates.push_back("avx2 tanh_dispatch_speedup < 2.0");
    if (adam_speedup < 1.8) gates.push_back("avx2 adam_dispatch_speedup < 1.8");
  }
  return gates;
}

// --- serving ---------------------------------------------------------------

// Hot-entry probe microbenchmark: N threads hammer Registry::find() on the
// one key every warm job starts from. Without bump coalescing every hit
// rewrites the blob's mtime, so the threads serialize on the inode; with
// MUXLINK_ZOO_BUMP_WINDOW_MS set only the first hit per window pays.
double probe_seconds(const zoo::Registry& reg, const std::string& key, int threads, int rounds) {
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < rounds; ++i) (void)reg.find(key);
    });
  }
  for (auto& w : workers) w.join();
  return seconds_since(t0);
}

// Three runs against one zoo: cold (empty registry: sample + train + score,
// blobs inserted), warm (weights mmap'd in place, score-cache hits) and
// fresh (score cache cleared: mapped weights, scores recomputed — the
// determinism probe for cache-served results).
Gates run_serving(const Context& ctx, common::RunManifest& m) {
  const std::filesystem::path zoo_dir = ctx.scratch / "zoo";
  core::MuxLinkOptions opts = attack_options(ctx.p);
  opts.use_zoo = true;
  opts.zoo_dir = zoo_dir.string();
  opts.scheme = "dmux";

  const auto cold = core::MuxLinkAttack(opts).run(ctx.circuit);
  const auto warm = core::MuxLinkAttack(opts).run(ctx.circuit);
  std::filesystem::remove_all(zoo_dir / "scores");
  std::filesystem::create_directories(zoo_dir / "scores");
  const auto fresh = core::MuxLinkAttack(opts).run(ctx.circuit);

  // Concurrent zoo-probe before/after: the same hot entry hit by 8
  // threads with per-find mtime bumps vs the coalesced read-mostly path.
  constexpr int kProbeThreads = 8;
  constexpr int kProbeRounds = 200;
  const zoo::Registry reg(zoo_dir);
  const double probe_serialized =
      probe_seconds(reg, cold.serving.zoo_key, kProbeThreads, kProbeRounds);
  ::setenv("MUXLINK_ZOO_BUMP_WINDOW_MS", "1000", 1);
  const double probe_coalesced =
      probe_seconds(reg, cold.serving.zoo_key, kProbeThreads, kProbeRounds);
  ::unsetenv("MUXLINK_ZOO_BUMP_WINDOW_MS");

  const bool identical = same_scores(cold, warm) && same_scores(cold, fresh);
  const double speedup = warm.total_seconds > 0.0 ? cold.total_seconds / warm.total_seconds : 0.0;
  const bool served = warm.serving.zoo_hit && fresh.serving.zoo_hit;

  m.add_stage("cold_total", cold.total_seconds);
  m.add_stage("cold_train", cold.train_seconds);
  m.add_stage("warm_total", warm.total_seconds);
  m.add_stage("warm_score", warm.score_seconds);
  m.add_stage("fresh_total", fresh.total_seconds);
  m.add_stage("probe_serialized", probe_serialized);
  m.add_stage("probe_coalesced", probe_coalesced);
  m.add_result("probe_coalesce_speedup",
               probe_coalesced > 0.0 ? probe_serialized / probe_coalesced : 0.0);
  m.add_result("warm_speedup", speedup);
  m.add_result("min_speedup", kWarmSpeedupFloor);
  m.add_result("bit_identical", identical ? 1.0 : 0.0);
  m.add_result("zoo_served", served ? 1.0 : 0.0);
  m.add_result("bytes_mapped", static_cast<double>(warm.serving.bytes_mapped));
  m.add_result("cache_hits", static_cast<double>(warm.serving.cache_hits));
  m.add_result("cache_misses", static_cast<double>(warm.serving.cache_misses));
  m.add_result("training_links", static_cast<double>(cold.training_links));
  m.extra["zoo_key"] = cold.serving.zoo_key;

  Gates gates;
  if (!identical) gates.push_back("zoo-served runs are not bit-identical to the cold run");
  if (!served) gates.push_back("a rerun was not served from the zoo");
  if (speedup < kWarmSpeedupFloor) {
    gates.push_back("warm_speedup " + std::to_string(speedup) + " below the 5x floor");
  }
  return gates;
}

// --- daemon and fleet: one served path -------------------------------------

// What a dispatcher returns: one manifest per job ("" = not delivered), its
// wall time, and the dispatcher's stats reply.
struct Dispatched {
  std::vector<std::string> manifests;
  double seconds = 0.0;
  common::Json stats;
};

using Dispatcher = std::function<Dispatched(const std::vector<core::AttackJobSpec>&)>;

daemon::DaemonOptions backend_options(const Context& ctx, const std::string& socket,
                                      std::size_t jobs) {
  daemon::DaemonOptions dopts;
  dopts.socket_path = (ctx.scratch / socket).string();
  dopts.workers = ctx.p.workers;
  dopts.max_queue = jobs + 8;
  dopts.zoo_dir = (ctx.scratch / "zoo").string();
  return dopts;
}

// Builds --jobs specs cycling over --distinct seeds against the scratch zoo,
// then times three phases: cold (each distinct spec once, filling the zoo
// and score cache), sequential_warm (every job back to back through
// run_attack_job: the one-process baseline) and <leg>_warm (the same jobs
// through `dispatch`). `shape` names the dispatcher's size in the results;
// `stat_keys` are copied from its stats reply.
Gates run_served(const Context& ctx, common::RunManifest& m, const std::string& leg,
                 const std::vector<std::pair<std::string, double>>& shape,
                 const std::vector<std::string>& stat_keys, const Dispatcher& dispatch) {
  const Params& p = ctx.p;
  core::AttackJobSpec base;
  base.attack = "muxlink";
  base.circuit = ctx.circuit.name();
  base.bench = netlist::write_bench(ctx.circuit);
  base.epochs = p.epochs;
  base.max_train_links = p.links;
  base.scheme = "dmux";
  base.use_zoo = true;
  base.zoo_dir = (ctx.scratch / "zoo").string();
  std::vector<core::AttackJobSpec> specs;
  for (std::size_t i = 0; i < p.jobs; ++i) {
    core::AttackJobSpec s = base;
    s.seed = p.seed + (i % p.distinct);
    specs.push_back(std::move(s));
  }

  const auto t_cold = Clock::now();
  for (std::size_t i = 0; i < p.distinct && i < p.jobs; ++i) core::run_attack_job(specs[i]);
  const double cold_seconds = seconds_since(t_cold);

  std::vector<std::string> sequential(p.jobs);
  const auto t_seq = Clock::now();
  for (std::size_t i = 0; i < p.jobs; ++i) {
    sequential[i] = core::run_attack_job(specs[i]).manifest.dump_pretty();
  }
  const double sequential_seconds = seconds_since(t_seq);

  const Dispatched served = dispatch(specs);
  bool identical = true;
  for (std::size_t i = 0; i < p.jobs; ++i) {
    identical = identical && !served.manifests[i].empty() && served.manifests[i] == sequential[i];
  }

  m.add_stage("cold", cold_seconds);
  m.add_stage("sequential_warm", sequential_seconds);
  m.add_stage(leg + "_warm", served.seconds);
  m.add_result("jobs", static_cast<double>(p.jobs));
  m.add_result("distinct_models", static_cast<double>(std::min(p.distinct, p.jobs)));
  for (const auto& [name, value] : shape) m.add_result(name, value);
  m.add_result(leg + "_speedup", served.seconds > 0.0 ? sequential_seconds / served.seconds : 0.0);
  m.add_result("bit_identical", identical ? 1.0 : 0.0);
  for (const std::string& key : stat_keys) m.add_result(key, served.stats.number_or(key, 0.0));
  m.extra[leg + "_stats"] = served.stats;

  if (identical) return {};
  return {leg + " manifests diverged from the sequential baseline"};
}

// --clients threads, each submitting its share of the jobs to one
// in-process muxlinkd and then waiting for each result.
Gates run_daemon(const Context& ctx, common::RunManifest& m) {
  const Params& p = ctx.p;
  return run_served(
      ctx, m, "daemon",
      {{"clients", static_cast<double>(p.clients)},
       {"daemon_workers", static_cast<double>(p.workers)}},
      {"jobs_completed", "requests_served"}, [&](const std::vector<core::AttackJobSpec>& specs) {
        const daemon::DaemonOptions dopts = backend_options(ctx, "daemon.sock", specs.size());
        daemon::DaemonServer server(dopts);
        server.start();
        Dispatched out;
        out.manifests.resize(specs.size());
        std::vector<std::exception_ptr> errors(p.clients);
        std::vector<std::thread> clients;
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < p.clients; ++c) {
          clients.emplace_back([&, c] {
            try {
              daemon::ClientOptions copts;
              copts.address = "unix:" + dopts.socket_path;
              daemon::DaemonClient client(std::move(copts));
              std::vector<std::pair<std::size_t, std::string>> mine;
              for (std::size_t i = c; i < specs.size(); i += p.clients) {
                mine.emplace_back(i, client.submit(specs[i]));
              }
              for (const auto& [i, job_id] : mine) {
                const common::Json reply = client.wait_for_result(job_id);
                if (const common::Json* manifest = reply.find("manifest")) {
                  out.manifests[i] = manifest->dump_pretty();
                }
              }
            } catch (...) {
              errors[c] = std::current_exception();
            }
          });
        }
        for (auto& t : clients) t.join();
        out.seconds = seconds_since(t0);
        for (const auto& e : errors) {
          if (e) std::rethrow_exception(e);
        }
        out.stats = server.stats_json();
        server.stop();
        return out;
      });
}

// A FleetCoordinator fanning the jobs out to --backends in-process muxlinkd.
Gates run_fleet(const Context& ctx, common::RunManifest& m) {
  const Params& p = ctx.p;
  return run_served(
      ctx, m, "fleet",
      {{"fleet_backends", static_cast<double>(p.backends)},
       {"backend_workers", static_cast<double>(p.workers)}},
      {"jobs_completed", "retries", "duplicate_results"},
      [&](const std::vector<core::AttackJobSpec>& specs) {
        std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
        fleet::FleetOptions fopts;
        for (std::size_t b = 0; b < p.backends; ++b) {
          const daemon::DaemonOptions dopts =
              backend_options(ctx, "backend-" + std::to_string(b) + ".sock", specs.size());
          servers.push_back(std::make_unique<daemon::DaemonServer>(dopts));
          servers.back()->start();
          fopts.backends.push_back("unix:" + dopts.socket_path);
        }
        fopts.allow_local_fallback = false;  // measure the fleet, not degradation
        fleet::FleetCoordinator coord(fopts);
        coord.start();
        Dispatched out;
        const auto t0 = Clock::now();
        std::vector<std::string> ids;
        for (const auto& spec : specs) ids.push_back(coord.submit(spec));
        for (const std::string& id : ids) {
          const fleet::FleetJobResult r = coord.wait(id);
          out.manifests.push_back(r.ok ? r.manifest.dump_pretty() : std::string());
        }
        out.seconds = seconds_since(t0);
        out.stats = coord.stats_json();
        coord.stop();
        for (auto& s : servers) s->stop();
        return out;
      });
}

// --- leg dispatch ----------------------------------------------------------

const std::vector<Leg>& legs() {
  static const std::vector<Leg> kLegs = {
      {"pipeline", {}, true, 20, 0, run_pipeline},
      {"kernels", {"min-ms"}, false, 0, 0, run_kernels},
      {"serving", {}, true, 20, 0, run_serving},
      {"daemon", {"jobs", "distinct", "workers", "clients"}, true, 12, 4, run_daemon},
      {"fleet", {"jobs", "distinct", "workers", "backends"}, true, 12, 2, run_fleet},
  };
  return kLegs;
}

int usage() {
  std::cerr << "usage: muxlink-bench <pipeline|kernels|serving|daemon|fleet> [--circuit C]\n"
               "         [--report F] [leg flags; see the tool header]\n";
  return 1;
}

// Parses a count flag, rejecting values below `min` as a usage error.
std::size_t count_flag(const tools::CliArgs& args, const std::string& key, long fallback,
                       long min = 1) {
  if (!args.has(key)) return static_cast<std::size_t>(fallback);
  const long v = args.get_long(key, fallback);
  if (v < min) {
    throw std::invalid_argument("--" + key + ": expected an integer >= " + std::to_string(min) +
                                ", got " + std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

Params parse_params(const Leg& leg, const tools::CliArgs& args) {
  std::vector<std::string> allowed = {"circuit", "report"};
  if (leg.locks) allowed.insert(allowed.end(), {"seed", "key-bits", "epochs", "links"});
  allowed.insert(allowed.end(), leg.flags.begin(), leg.flags.end());
  args.allow_only(allowed);
  if (!args.positional().empty()) {
    throw std::invalid_argument("unexpected argument '" + args.positional()[0] + "'");
  }
  Params p;
  p.circuit = args.get_or("circuit", "c880");
  p.seed = count_flag(args, "seed", 1, 0);
  p.report = args.get("report");
  p.key_bits = count_flag(args, "key-bits", 32);
  p.epochs = static_cast<int>(count_flag(args, "epochs", leg.default_epochs));
  p.links = count_flag(args, "links", 2000);
  p.min_seconds = static_cast<double>(count_flag(args, "min-ms", 300, 0)) / 1000.0;
  p.jobs = count_flag(args, "jobs", 6);
  p.distinct = count_flag(args, "distinct", 2);
  p.clients = count_flag(args, "clients", 3);
  p.backends = count_flag(args, "backends", 2);
  p.workers = static_cast<int>(count_flag(args, "workers", leg.default_workers));
  return p;
}

int run(const Leg& leg, const Params& p) {
  const ScratchDir scratch;
  netlist::Netlist circuit = circuitgen::make_benchmark(p.circuit, 1.0);
  common::RunManifest m = common::make_run_manifest("bench_" + std::string(leg.name));
  m.seed = p.seed;
  m.circuit = p.circuit;
  m.extra = common::Json::object();
  if (leg.locks) {
    locking::MuxLockOptions lopts;
    lopts.key_bits = p.key_bits;
    lopts.seed = 1;
    circuit = locking::lock_dmux(circuit, lopts).netlist;
    m.scheme = "dmux";
    m.key_bits = static_cast<std::int64_t>(p.key_bits);
    m.extra["epochs"] = p.epochs;
    m.extra["links"] = static_cast<std::int64_t>(p.links);
  }

  const Gates gates = leg.run(Context{p, circuit, scratch.path()}, m);
  m.extra["cpu"] = gnn::cpu_info_json();
  m.observability = common::observability_to_json();

  const common::Json j = m.to_json();
  std::cout << j.dump() << "\n";
  if (p.report) {
    std::ofstream os(*p.report);
    if (!os) throw std::runtime_error("cannot write '" + *p.report + "'");
    os << j.dump_pretty() << "\n";
  }
  for (const std::string& g : gates) std::cerr << "gate failed: " << g << "\n";
  return gates.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Leg* leg = nullptr;
  for (const Leg& l : legs()) {
    if (argc >= 2 && l.name == argv[1]) leg = &l;
  }
  if (leg == nullptr) {
    if (argc >= 2) std::cerr << "error: unknown leg '" << argv[1] << "'\n";
    return usage();
  }
  Params p;
  try {
    p = parse_params(*leg, tools::CliArgs(argc - 2, argv + 2));
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }
  try {
    return run(*leg, p);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
