#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "attacks/key_trace.h"
#include "attacks/metrics.h"
#include "circuitgen/suites.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "daemon/client.h"
#include "daemon/net.h"
#include "daemon/server.h"
#include "eval/campaign.h"
#include "fleet/coordinator.h"
#include "gnn/encoding.h"
#include "graph/sampling.h"
#include "graph/subgraph.h"
#include "locking/mux_lock.h"
#include "locking/schemes.h"
#include "muxlink/attack.h"
#include "muxlink/job.h"
#include "netlist/bench_io.h"
#include "sim/simulator.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"

namespace perfbench {
namespace {

using namespace muxlink;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Set-up runs at least kMinSetupRepeats times, and more while the run has
// spent under kSetupBudgetMs on it; setup_s is the median.
constexpr std::size_t kMinSetupRepeats = 3;
constexpr std::size_t kMaxSetupRepeats = 15;
constexpr double kSetupBudgetMs = 500.0;
// One closed-loop caller against the daemon: each job runs alone, so its
// latency is the serving path's own cost, not CPU contention between jobs
// (with 4 callers on a shared 4-core host the run-to-run spread of the
// latency median reached 0.4).
constexpr int kServeClients = 1;
// Nominal job rate that sizes the serving loop to about --seconds (near the
// rate measured on a 4-core x86-64 VM; see serve_plan).
constexpr double kWarmJobsPerS = 60.0;
// The fleet phase of the traced warm_serve run: 2 callers through a
// FleetCoordinator over 2 in-process daemons of 1 worker each, for a fixed
// number of spec cycles per caller.
constexpr int kFleetBackends = 2;
constexpr int kFleetClients = 2;
constexpr std::size_t kFleetCycles = 4;
// glibc mmap threshold of the serving workload (see run_warm_serve).
constexpr int kServeMmapThreshold = 512 * 1024;
// Warm-serving models: c880/dmux/K=32, one per lock variant, at a short
// training budget. Blob size and scoring cost do not depend on it, but it is
// part of the zoo key, so prefill and traffic share these values. Eight
// variants keep the mean KPA of a run from hanging on a few designs.
constexpr int kServeModels = 8;
constexpr int kServeEpochs = 1;
constexpr std::size_t kServeLinks = 500;
// Simulation patterns per HD measurement (the campaign's count).
constexpr std::size_t kHdPatterns = 2000;
// Samples per design for the DGCNN forward/backward probe.
constexpr std::size_t kGnnProbeSamples = 64;
// Repeats of each layer probe (they time short calls).
constexpr int kProbeRounds = 3;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read '" + path.string() + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::vector<double> span_ms(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> v;
  for (const Span& s : spans) {
    if (s.name == name) v.push_back(1e3 * (s.end - s.start));
  }
  return v;
}

// Mean wall time of one span of `name`, in `scale` units per second.
double mean_span(const std::map<std::string, SpanStats>& sum, const std::string& name,
                 double scale) {
  const auto it = sum.find(name);
  return it == sum.end() || it->second.count == 0
             ? 0.0
             : scale * it->second.total_seconds / static_cast<double>(it->second.count);
}

double total_span(const std::map<std::string, SpanStats>& sum, const std::string& name) {
  const auto it = sum.find(name);
  return it == sum.end() ? 0.0 : it->second.total_seconds;
}

// Seed of variant `v` (0-based) out of `n` per run: runs at different
// workload seeds never share a design.
std::uint64_t variant_seed(const RunContext& ctx, std::size_t n, std::size_t v) {
  return (ctx.seed - 1) * n + 1 + v;
}

// One locked design of a workload; `seed` seeds the locking.
struct Design {
  std::string circuit;
  std::string scheme;
  std::uint64_t seed = 0;
  netlist::Netlist original;
  locking::LockedDesign locked;
};

Design make_design(const RunContext& ctx, const std::string& circuit, const std::string& scheme,
                   std::size_t key_bits, std::uint64_t seed, bool allow_partial) {
  Design d;
  d.circuit = circuit;
  d.scheme = scheme;
  d.seed = seed;
  {
    ScopedSpan s(ctx.spans, "circuitgen.make_benchmark");
    d.original = circuitgen::make_benchmark(circuit, 1.0);
  }
  locking::MuxLockOptions lopts;
  lopts.key_bits = key_bits;
  lopts.seed = seed;
  lopts.allow_partial = allow_partial;
  {
    ScopedSpan s(ctx.spans, "locking.lock");
    d.locked = locking::resolve_scheme(scheme)(d.original, lopts);
  }
  return d;
}

// Runs `setup` repeatedly (see kMinSetupRepeats), timing each, and returns
// the last result.
template <class F>
auto timed_setup(const RunContext& ctx, WorkloadResult& out, F setup) {
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    auto result = [&] {
      ScopedSpan s(ctx.spans, "setup", ctx.new_request());
      return setup();
    }();
    out.setup_s.push_back(ms_since(t0) / 1e3);
    const std::size_t n = out.setup_s.size();
    if (n >= kMaxSetupRepeats || (n >= kMinSetupRepeats && ms_since(start) >= kSetupBudgetMs)) {
      return result;
    }
  }
}

// How long a closed loop runs: each caller stops at a cycle boundary once
// `seconds` have passed and it has run at least `min_ops` operations. With
// `seconds` 0 it runs exactly `min_ops` when that is whole cycles.
struct LoopPlan {
  int clients = 1;
  std::size_t min_ops = 0;
  std::size_t cycle = 1;
  double seconds = 0.0;
  std::size_t warmup = 0;  // untimed operations per caller before the loop
};

// Drives plan.clients closed-loop callers: each runs op(client, i, traced)
// for i = 0, 1, ... until the plan says stop. Successful operations record
// their latency; every outcome goes to the tally. The warm-up operations come
// first, with op indices 0 .. plan.warmup - 1 again, and are checked but not
// timed; the measured loop starts when every caller has finished them.
void closed_loop(const RunContext& ctx, WorkloadResult& out, const LoopPlan& plan,
                 const std::function<Outcome(int, std::size_t, bool)>& op) {
  std::mutex m;
  auto call = [&](int c, std::size_t i, bool timed) {
    const bool traced = timed && ctx.traced_op(i, plan.cycle);
    const auto t0 = Clock::now();
    Outcome o = Outcome::kFailed;
    std::string error;
    try {
      o = op(c, i, traced);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double ms = ms_since(t0);
    out.tally.add(o);
    std::lock_guard<std::mutex> lock(m);
    if (o == Outcome::kOk) {
      if (!timed) return;
      ++out.ops_completed;
      (traced ? out.traced_op_ms : out.op_ms).push_back(ms);
    } else if (out.errors.size() < 8) {
      static const char* const kWhat[] = {"ok", "failed", "refused", "timed out",
                                          "output differs from the reference"};
      out.errors.push_back("client " + std::to_string(c) + " op " + std::to_string(i) + ": " +
                           (error.empty() ? kWhat[static_cast<int>(o)] : error));
    }
  };
  auto run_callers = [&](const std::function<void(int)>& caller) {
    std::vector<std::thread> threads;
    for (int c = 1; c < plan.clients; ++c) threads.emplace_back(caller, c);
    caller(0);
    for (auto& t : threads) t.join();
  };
  run_callers([&](int c) {
    for (std::size_t i = 0; i < plan.warmup; ++i) call(c, i, false);
  });
  const auto start = Clock::now();
  const double cpu0 = cpu_seconds();
  run_callers([&](int c) {
    for (std::size_t i = 0;; ++i) {
      if (i % plan.cycle == 0 && i >= plan.min_ops && ms_since(start) >= 1e3 * plan.seconds) {
        break;
      }
      call(c, i, true);
    }
  });
  out.loop_s = ms_since(start) / 1e3;
  out.loop_cpu_s = cpu_seconds() - cpu0;
}

// Times each layer's public entry point on one locked design, inside spans
// that the per-layer metrics are read back from.
struct ProbeCounts {
  std::size_t links = 0;    // links through graph.extract_enclosing_subgraphs
  std::size_t samples = 0;  // samples through gnn.predict / gnn.accumulate_gradients
};

void probe_design(const RunContext& ctx, const Design& d, int hops, std::size_t max_links,
                  std::size_t hd_patterns, ProbeCounts& counts) {
  ScopedSpan root(ctx.spans, "probe.design", ctx.new_request());
  const std::string text = netlist::write_bench(d.locked.netlist);
  netlist::Netlist locked;
  {
    ScopedSpan s(ctx.spans, "netlist.parse_bench");
    locked = netlist::parse_bench(text, d.circuit);
  }
  std::vector<attacks::TracedMux> muxes;
  {
    ScopedSpan s(ctx.spans, "attacks.key_trace");
    muxes = attacks::trace_key_muxes(locked);
    (void)attacks::group_localities(locked, muxes);
  }
  std::vector<netlist::GateId> excluded;
  for (const auto& m : muxes) excluded.push_back(m.mux);
  const graph::CircuitGraph g = [&] {
    ScopedSpan s(ctx.spans, "graph.build_circuit_graph");
    return graph::build_circuit_graph(locked, excluded);
  }();
  std::vector<graph::Link> targets;
  for (const auto& m : muxes) {
    for (const netlist::GateId driver : {m.input_a, m.input_b}) {
      targets.push_back({static_cast<graph::NodeId>(g.node_of(driver)),
                         static_cast<graph::NodeId>(g.node_of(m.sink))});
    }
  }
  graph::SamplingOptions sopts;
  sopts.max_links = max_links;
  sopts.seed = d.seed;
  std::vector<graph::LinkSample> sampled;
  {
    ScopedSpan s(ctx.spans, "graph.sample_links");
    sampled = graph::sample_links(g, targets, sopts);
  }
  std::vector<graph::Link> links;
  for (const auto& ls : sampled) links.push_back(ls.link);
  graph::SubgraphOptions sgopts;
  sgopts.hops = hops;
  std::vector<graph::Subgraph> subgraphs;
  {
    ScopedSpan s(ctx.spans, "graph.extract_enclosing_subgraphs");
    subgraphs = graph::extract_enclosing_subgraphs(g, links, sgopts);
  }
  counts.links += links.size();

  std::vector<int> sizes;
  for (const auto& sg : subgraphs) sizes.push_back(static_cast<int>(sg.num_nodes()));
  gnn::DgcnnConfig cfg;
  cfg.sortpool_k = gnn::choose_sortpool_k(sizes);
  cfg.seed = d.seed;
  gnn::Dgcnn model(gnn::feature_dim_for_hops(hops), cfg);
  std::vector<gnn::GraphSample> samples;
  for (std::size_t i = 0; i < subgraphs.size() && samples.size() < kGnnProbeSamples; ++i) {
    samples.push_back(gnn::encode_subgraph(subgraphs[i], hops, sampled[i].positive ? 1 : 0));
  }
  {
    ScopedSpan s(ctx.spans, "gnn.predict");
    for (const auto& x : samples) (void)model.predict(x, false);
  }
  {
    ScopedSpan s(ctx.spans, "gnn.accumulate_gradients");
    for (const auto& x : samples) (void)model.accumulate_gradients(x);
  }
  counts.samples += samples.size();

  sim::HammingOptions hopts;
  hopts.num_patterns = hd_patterns;
  hopts.seed = d.seed;
  {
    ScopedSpan s(ctx.spans, "sim.hamming_distance_percent");
    (void)sim::hamming_distance_percent(d.original, d.locked.netlist, hopts);
  }
}

// Registry::find and load_model_blob (mmap + whole-blob CRC) on every entry.
void probe_zoo(const RunContext& ctx, const fs::path& zoo_dir) {
  const zoo::Registry reg(zoo_dir);
  for (const auto& entry : reg.list()) {
    for (int r = 0; r < kProbeRounds; ++r) {
      ScopedSpan root(ctx.spans, "probe.zoo", ctx.new_request());
      std::optional<fs::path> path;
      {
        ScopedSpan s(ctx.spans, "zoo.find");
        path = reg.find(entry.key);
      }
      if (!path) throw std::runtime_error("zoo probe: entry " + entry.key + " vanished");
      ScopedSpan s(ctx.spans, "zoo.load_model_blob");
      (void)zoo::load_model_blob(*path);
    }
  }
}

// Layer metrics every workload reads off its probes and set-up spans.
void design_layers(const RunContext& ctx, WorkloadResult& out, const ProbeCounts& counts) {
  const auto sum = summarize_spans(ctx.spans->spans());
  auto per = [&](const char* name, std::size_t n, double scale) {
    return n == 0 ? 0.0 : scale * total_span(sum, name) / static_cast<double>(n);
  };
  out.layers["graph.extract_us_per_link"] =
      per("graph.extract_enclosing_subgraphs", counts.links, 1e6);
  out.layers["gnn.forward_us"] = per("gnn.predict", counts.samples, 1e6);
  out.layers["gnn.backward_us"] = per("gnn.accumulate_gradients", counts.samples, 1e6);
  out.layers["netlist.parse_bench_ms"] = mean_span(sum, "netlist.parse_bench", 1e3);
  out.layers["attacks.key_trace_ms"] = mean_span(sum, "attacks.key_trace", 1e3);
  out.layers["sim.hd_ms"] = mean_span(sum, "sim.hamming_distance_percent", 1e3);
  out.layers["locking.lock_ms"] = mean_span(sum, "locking.lock", 1e3);
  if (sum.count("zoo.find")) {
    out.layers["zoo.find_us"] = mean_span(sum, "zoo.find", 1e6);
    out.layers["zoo.load_ms"] = mean_span(sum, "zoo.load_model_blob", 1e3);
  }
}

// serving.* counters of the library's own registry, for hit ratios.
struct ServingCounters {
  std::int64_t zoo_hits = 0, zoo_misses = 0, cache_hits = 0, cache_misses = 0;

  static ServingCounters now() {
    const auto snap = common::MetricsRegistry::instance().snapshot();
    auto get = [&](const char* n) {
      const auto it = snap.counters.find(n);
      return it == snap.counters.end() ? std::int64_t{0} : it->second;
    };
    return {get("serving.zoo_hits"), get("serving.zoo_misses"), get("serving.cache_hits"),
            get("serving.cache_misses")};
  }
};

void hit_ratio_layers(WorkloadResult& out, const ServingCounters& a, const ServingCounters& b) {
  auto ratio = [](std::int64_t hits, std::int64_t misses) {
    const std::int64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  };
  out.layers["zoo.hit_ratio"] = ratio(b.zoo_hits - a.zoo_hits, b.zoo_misses - a.zoo_misses);
  out.layers["zoo.score_cache_hit_ratio"] =
      ratio(b.cache_hits - a.cache_hits, b.cache_misses - a.cache_misses);
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

// ---------------------------------------------------------------------------
// Warm serving: warm_serve's daemon loop and its traced fleet phase.
// ---------------------------------------------------------------------------

struct ServeSetup {
  std::vector<Design> designs;  // one per model
  fs::path zoo_dir;
  std::vector<core::AttackJobSpec> specs;  // kServeModels x score_cache {on, off}
  std::vector<std::string> reference;      // direct run_attack_job manifest per spec
};

ServeSetup setup_serving(const RunContext& ctx, WorkloadResult& out) {
  int repeat = 0;
  ServeSetup s = timed_setup(ctx, out, [&] {
    ServeSetup r;
    r.zoo_dir = ctx.work_dir / ("zoo" + std::to_string(repeat++));
    fs::remove_all(r.zoo_dir);
    for (int m = 0; m < kServeModels; ++m) {
      r.designs.push_back(
          make_design(ctx, "c880", "dmux", 32, variant_seed(ctx, kServeModels, m), false));
    }
    for (const bool cache : {true, false}) {
      for (const Design& d : r.designs) {
        core::AttackJobSpec spec;
        spec.circuit = d.locked.netlist.name();
        spec.bench = netlist::write_bench(d.locked.netlist);
        spec.epochs = kServeEpochs;
        spec.max_train_links = kServeLinks;
        spec.seed = d.seed;
        spec.scheme = d.scheme;
        spec.use_zoo = true;
        spec.zoo_dir = r.zoo_dir.string();
        spec.score_cache = cache;
        spec.truth_key = d.locked.key_string();
        r.specs.push_back(std::move(spec));
      }
    }
    // Prefill: train each model once and persist its per-link score cache.
    for (int m = 0; m < kServeModels; ++m) {
      ScopedSpan span(ctx.spans, "muxlink.prefill");
      (void)core::run_attack_job(r.specs[m]);
    }
    return r;
  });
  for (int r = 0; r + 1 < repeat; ++r) fs::remove_all(ctx.work_dir / ("zoo" + std::to_string(r)));

  // References for the byte-equality gate, run directly and sequentially.
  // The traced run repeats them to time muxlink.job_ms_p50.
  const int rounds = ctx.tracing() ? kProbeRounds : 1;
  double kpa = 0.0;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
      core::AttackJobOutcome o;
      {
        ScopedSpan span(ctx.spans, "muxlink.run_attack_job", ctx.new_request());
        o = core::run_attack_job(s.specs[i]);
      }
      const std::string text = o.manifest.dump();
      if (round == 0) {
        s.reference.push_back(text);
        if (i < kServeModels) kpa += o.manifest.at("results").number_or("kpa_percent", 0.0);
      } else if (text != s.reference[i]) {
        throw std::runtime_error("direct run_attack_job is not repeatable on spec " +
                                 std::to_string(i));
      }
    }
  }
  out.kpa_pct = kpa / kServeModels;
  out.kpa_n = kServeModels;
  return s;
}

// Spec of caller c's i-th job (of `clients`): cycles over every
// (model, score_cache) pair, callers starting evenly spread over the cycle.
std::size_t spec_index(const ServeSetup& s, int client, int clients, std::size_t i) {
  const std::size_t n = s.specs.size();
  return (i + static_cast<std::size_t>(client) * n / static_cast<std::size_t>(clients)) % n;
}

// The serving loop runs a fixed number of jobs, not a fixed time: the daemon
// keeps every job record, so peak RSS would otherwise grow with throughput.
// The count is --seconds times a nominal rate near the measured one, in an
// even number of spec cycles per client (a traced run alternates whole cycles
// between untraced and traced). One untimed spec cycle per client warms the
// daemon, the zoo mappings and the page cache first.
LoopPlan serve_plan(const RunContext& ctx, const ServeSetup& s) {
  const std::size_t cycle = s.specs.size();
  const double cycles = ctx.seconds * kWarmJobsPerS / static_cast<double>(kServeClients * cycle);
  return {kServeClients, cycle * 2 * static_cast<std::size_t>(std::ceil(cycles / 2)), cycle, 0.0,
          cycle};
}

// The fleet layer, measured in the traced run only: the warm_serve mix
// through a FleetCoordinator (hedging off, no local fallback) over in-process
// daemons. Its jobs pass the same byte-equality gate and count in `out`'s
// tally; the latency and retry figures become fleet.* layer metrics.
void fleet_layers(const RunContext& ctx, WorkloadResult& out, const ServeSetup& s) {
  std::vector<std::unique_ptr<daemon::DaemonServer>> servers;
  fleet::FleetOptions fopts;
  for (int b = 0; b < kFleetBackends; ++b) {
    daemon::DaemonOptions dopts;
    dopts.socket_path = (ctx.work_dir / ("backend" + std::to_string(b) + ".sock")).string();
    dopts.workers = 1;
    dopts.zoo_dir = s.zoo_dir.string();
    servers.push_back(std::make_unique<daemon::DaemonServer>(dopts));
    servers.back()->start();
    fopts.backends.push_back("unix:" + dopts.socket_path);
  }
  fopts.hedge_after_ms = 0;
  fopts.allow_local_fallback = false;  // measure the fleet, not its degradation
  fleet::FleetCoordinator coord(fopts);
  coord.start();

  const std::size_t cycle = s.specs.size();
  WorkloadResult phase;
  closed_loop(ctx, phase, {kFleetClients, kFleetCycles * cycle, cycle, 0.0, cycle},
              [&](int c, std::size_t i, bool traced) {
                const std::size_t k = spec_index(s, c, kFleetClients, i);
                fleet::FleetJobResult r;
                {
                  ScopedSpan span(traced ? ctx.spans : nullptr, "fleet.FleetCoordinator.run",
                                  ctx.new_request());
                  r = coord.run(s.specs[k]);
                }
                if (!r.ok) return Outcome::kFailed;
                // Gate: every served manifest is byte-equal to the direct run.
                return r.manifest.dump() == s.reference[k] ? Outcome::kOk : Outcome::kMismatch;
              });
  const common::Json fstats = coord.stats_json();
  coord.stop();
  for (auto& srv : servers) srv->stop();

  out.tally.merge(phase.tally);
  for (auto& e : phase.errors) out.errors.push_back("fleet: " + e);
  std::vector<double> job_ms = phase.op_ms;
  job_ms.insert(job_ms.end(), phase.traced_op_ms.begin(), phase.traced_op_ms.end());
  out.layers["fleet.overhead_ms"] = median(job_ms) - out.layers["muxlink.job_ms_p50"];
  out.layers["fleet.retries"] = fstats.number_or("retries", 0.0);
  out.layers["fleet.duplicate_results"] = fstats.number_or("duplicate_results", 0.0);
}

// Per-layer metrics of the serving path, from probes after the loop.
void serving_layers(const RunContext& ctx, WorkloadResult& out, const ServeSetup& s) {
  ProbeCounts counts;
  for (int r = 0; r < kProbeRounds; ++r) {
    for (const Design& d : s.designs) {
      probe_design(ctx, d, s.specs[0].hops, kServeLinks, kHdPatterns, counts);
    }
  }
  probe_zoo(ctx, s.zoo_dir);
  design_layers(ctx, out, counts);
  out.layers["muxlink.job_ms_p50"] =
      median(span_ms(ctx.spans->spans(), "muxlink.run_attack_job"));

  // gnn.score_ms: the attack behind an uncached warm job, called directly.
  const core::AttackJobSpec& spec = s.specs[kServeModels];  // score_cache off
  core::MuxLinkOptions opts;
  opts.hops = spec.hops;
  opts.threshold = spec.threshold;
  opts.epochs = spec.epochs;
  opts.learning_rate = spec.learning_rate;
  opts.max_train_links = spec.max_train_links;
  opts.seed = spec.seed;
  opts.scheme = spec.scheme;
  opts.use_zoo = true;
  opts.zoo_dir = spec.zoo_dir;
  opts.score_cache = false;
  const netlist::Netlist locked = netlist::parse_bench(spec.bench, spec.circuit);
  std::vector<double> score_ms;
  for (int r = 0; r < kProbeRounds; ++r) {
    ScopedSpan span(ctx.spans, "muxlink.MuxLinkAttack.run", ctx.new_request());
    const core::MuxLinkResult res = core::MuxLinkAttack(opts).run(locked);
    if (!res.serving.zoo_hit) throw std::runtime_error("score probe missed the prefilled zoo");
    score_ms.push_back(1e3 * res.score_seconds);
  }
  out.layers["gnn.score_ms"] = median(score_ms);
}

}  // namespace

// ---------------------------------------------------------------------------

void run_cold_attack(const RunContext& ctx, WorkloadResult& out) {
  // Two lock variants of each design: more distinct inputs per run make the
  // run's figures depend less on the one seed it was given.
  constexpr std::size_t kVariants = 2;
  const std::vector<Design> designs = timed_setup(ctx, out, [&] {
    std::vector<Design> ds;
    for (std::size_t v = 0; v < kVariants; ++v) {
      const std::uint64_t seed = variant_seed(ctx, kVariants, v);
      ds.push_back(make_design(ctx, "c880", "dmux", 32, seed, false));
      ds.push_back(make_design(ctx, "c1908", "symmetric", 64, seed, false));
    }
    return ds;
  });
  core::MuxLinkOptions opts;
  opts.epochs = 10;
  opts.max_train_links = 2000;
  opts.learning_rate = 1e-3;

  std::vector<std::optional<core::MuxLinkResult>> first(designs.size());
  std::vector<double> sample_s, train_s, score_ms, samples_per_s;
  double kpa = 0.0;
  closed_loop(ctx, out, {1, 2 * designs.size(), designs.size(), ctx.seconds},
              [&](int, std::size_t i, bool traced) {
                const std::size_t k = i % designs.size();
                core::MuxLinkOptions o = opts;
                o.seed = designs[k].seed;
                core::MuxLinkResult r;
                {
                  ScopedSpan s(traced ? ctx.spans : nullptr, "muxlink.MuxLinkAttack.run",
                               ctx.new_request());
                  r = core::MuxLinkAttack(o).run(designs[k].locked.netlist);
                }
                sample_s.push_back(r.sample_seconds);
                train_s.push_back(r.train_seconds);
                score_ms.push_back(1e3 * r.score_seconds);
                samples_per_s.push_back(static_cast<double>(r.training.train_samples) *
                                        opts.epochs / r.train_seconds);
                if (!first[k]) {
                  kpa += attacks::score_key(designs[k].locked.key, r.key).kpa_percent();
                  first[k] = std::move(r);
                  return Outcome::kOk;
                }
                // Gate: keys and per-link scores are bit-identical across repeats.
                return same_scores(*first[k], r) ? Outcome::kOk : Outcome::kMismatch;
              });
  out.kpa_pct = kpa / static_cast<double>(designs.size());
  out.kpa_n = designs.size();
  if (!ctx.tracing()) return;

  ProbeCounts counts;
  for (int r = 0; r < kProbeRounds; ++r) {
    for (const Design& d : designs) {
      probe_design(ctx, d, opts.hops, opts.max_train_links, kHdPatterns, counts);
    }
  }
  design_layers(ctx, out, counts);
  out.layers["graph.sample_s"] = median(sample_s);
  out.layers["gnn.train_s"] = median(train_s);
  out.layers["gnn.train_samples_per_s"] = median(samples_per_s);
  out.layers["gnn.score_ms"] = median(score_ms);
}

void run_warm_serve(const RunContext& ctx, WorkloadResult& out) {
  // A fixed mmap threshold makes the daemon's memory repeatable. With glibc's
  // dynamic threshold, per-job temporaries of 512-768 KiB land in the heap
  // between the job records the daemon keeps, and runs at ten seeds peaked
  // anywhere from 68 to 113 MB. At 512 KiB they are mapped and unmapped per
  // job instead (about 2-3 ms of each job), and the peak is the set-up plus
  // the records.
  mallopt(M_MMAP_THRESHOLD, kServeMmapThreshold);
  const ServeSetup s = setup_serving(ctx, out);
  daemon::DaemonOptions dopts;
  dopts.socket_path = (ctx.work_dir / "muxlinkd.sock").string();
  dopts.workers = kServeClients;
  dopts.zoo_dir = s.zoo_dir.string();
  daemon::DaemonServer server(dopts);
  server.start();
  const ServingCounters before = ServingCounters::now();

  std::vector<std::unique_ptr<daemon::DaemonClient>> clients;
  for (int c = 0; c < kServeClients; ++c) {
    daemon::ClientOptions copts;
    copts.address = "unix:" + dopts.socket_path;
    clients.push_back(std::make_unique<daemon::DaemonClient>(copts));
  }
  closed_loop(ctx, out, serve_plan(ctx, s), [&](int c, std::size_t i, bool traced) {
    const std::size_t k = spec_index(s, c, kServeClients, i);
    SpanLog* log = traced ? ctx.spans : nullptr;
    ScopedSpan job(log, "client.job", ctx.new_request());
    std::string id;
    try {
      ScopedSpan span(log, "daemon.DaemonClient.submit");
      id = clients[c]->submit(s.specs[k]);
    } catch (const daemon::DaemonError& e) {
      if (e.code() == static_cast<int>(daemon::ErrorCode::kQueueFull)) return Outcome::kRefused;
      throw;
    }
    common::Json reply;
    {
      ScopedSpan span(log, "daemon.DaemonClient.wait_for_result");
      reply = clients[c]->wait_for_result(id);
    }
    const std::string state = reply.string_or("state", "");
    if (state == "TIMEOUT") return Outcome::kTimedOut;
    if (state != "DONE") return Outcome::kFailed;
    const common::Json* manifest = reply.find("manifest");
    // Gate: every served manifest is byte-equal to the direct run.
    return manifest && manifest->dump() == s.reference[k] ? Outcome::kOk : Outcome::kMismatch;
  });
  const ServingCounters after = ServingCounters::now();
  const common::Json stats = server.stats_json();
  clients.clear();
  server.stop();
  if (!ctx.tracing()) return;

  serving_layers(ctx, out, s);
  hit_ratio_layers(out, before, after);
  out.layers["daemon.overhead_ms"] = median(out.op_ms) - out.layers["muxlink.job_ms_p50"];
  const double jobs = stats.number_or("jobs_completed", 0.0);
  out.layers["daemon.requests_per_job"] =
      jobs > 0 ? stats.number_or("requests_served", 0.0) / jobs : 0.0;
  fleet_layers(ctx, out, s);
}

void run_campaign_sweep(const RunContext& ctx, WorkloadResult& out) {
  // Sweeps alternate between two seed variants, each swept at least twice.
  constexpr std::size_t kVariants = 2;
  eval::CampaignOptions base;  // {dmux, symmetric, simll, deceptive} x {c432, c880} x 2 attacks
  base.key_bits = 16;
  base.epochs = 10;
  base.hd_patterns = kHdPatterns;
  base.use_zoo = true;
  const std::vector<Design> designs = timed_setup(ctx, out, [&] {
    std::vector<Design> ds;
    for (std::size_t v = 0; v < kVariants; ++v) {
      for (const auto& scheme : base.schemes) {
        for (const auto& circuit : base.circuits) {
          ds.push_back(make_design(ctx, circuit, scheme, base.key_bits,
                                   variant_seed(ctx, kVariants, v), true));
        }
      }
    }
    return ds;
  });

  const ServingCounters before = ServingCounters::now();
  std::vector<std::string> first(kVariants);
  std::vector<double> cell_s, parallel_eff;
  const fs::path dir = ctx.work_dir / "sweep";
  const LoopPlan plan{1, 2 * kVariants, kVariants, ctx.seconds};
  closed_loop(ctx, out, plan, [&](int, std::size_t i, bool traced) {
    const std::size_t v = i % kVariants;
    eval::CampaignOptions opts = base;
    opts.seed = variant_seed(ctx, kVariants, v);
    fs::remove_all(dir);  // a fresh zoo per sweep
    opts.out_dir = (dir / "out").string();
    opts.zoo_dir = (dir / "zoo").string();
    const auto t0 = Clock::now();
    eval::CampaignResult r;
    {
      ScopedSpan s(traced ? ctx.spans : nullptr, "eval.run_campaign", ctx.new_request());
      r = eval::run_campaign(opts);
    }
    const double sweep_s = ms_since(t0) / 1e3;
    double sum = 0.0;
    for (const auto& cell : r.cells) {
      const auto m = common::Json::parse(read_file(cell.manifest_path));
      const double s = m.at("stages").number_or("total", 0.0);
      cell_s.push_back(s);
      sum += s;
    }
    parallel_eff.push_back(sum / (sweep_s * static_cast<double>(common::num_threads())));
    const std::string text = read_file(r.aggregate_path);
    if (first[v].empty()) {
      first[v] = text;
      for (const auto& cell : r.cells) out.kpa_pct += cell.kpa_percent;
      out.kpa_n += r.cells.size();
      return Outcome::kOk;
    }
    // Gate: the aggregate campaign.json is byte-identical across repeats.
    return text == first[v] ? Outcome::kOk : Outcome::kMismatch;
  });
  const ServingCounters after = ServingCounters::now();
  out.kpa_pct /= static_cast<double>(std::max<std::size_t>(1, out.kpa_n));
  if (!ctx.tracing()) return;

  ProbeCounts counts;
  for (int r = 0; r < kProbeRounds; ++r) {
    for (const Design& d : designs) {
      probe_design(ctx, d, base.hops, base.max_train_links, base.hd_patterns, counts);
    }
  }
  probe_zoo(ctx, dir / "zoo");  // the last sweep's
  design_layers(ctx, out, counts);
  hit_ratio_layers(out, before, after);
  std::vector<double> sorted = cell_s;
  std::sort(sorted.begin(), sorted.end());
  out.layers["eval.cell_s_p50"] = median(cell_s);
  out.layers["eval.cell_s_max"] = sorted.empty() ? 0.0 : sorted.back();
  out.layers["eval.parallel_eff"] = median(parallel_eff);
}

}  // namespace perfbench
