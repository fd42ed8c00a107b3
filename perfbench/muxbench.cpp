// muxbench — runs one benchmark workload and prints its metrics.
//
//   muxbench --workload cold_attack|warm_serve|campaign_sweep
//            --seed N --seconds S --trace 0|1 [--source-id ID] [--git-sha SHA]
//
// stdout: one `# provenance {...}` line, one `metric <name> <value> <unit>
// n=<samples>` line per metric, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. The timed run (--trace 0)
// reports the end-to-end metrics; the traced run (--trace 1) the per-layer
// ones, and writes its spans to .bench_out/<workload>-seed<N>.spans.jsonl.
// The full result, provenance included, goes to .bench_out/ as JSON.
// Exit 0 when every output gate passed, 3 when one failed, 2 on error.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/build_info.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gnn/simd.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using muxlink::common::Json;
namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json: every workload reports every metric of its run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"op_ms_p50", "ms"}, {"ops_per_s", "1/s"},
    {"kpa_pct", "%"}, {"peak_rss_mb", "MB"},
};
// Layers a workload does not exercise report 0 (README.md, "Per-layer metrics").
constexpr MetricDef kPerLayer[] = {
    {"common.pool.cpu_util", "ratio"},    {"trace.overhead_pct", "%"},
    {"graph.sample_s", "s"},              {"graph.extract_us_per_link", "us"},
    {"gnn.train_s", "s"},                 {"gnn.train_samples_per_s", "1/s"},
    {"gnn.forward_us", "us"},             {"gnn.backward_us", "us"},
    {"gnn.score_ms", "ms"},               {"netlist.parse_bench_ms", "ms"},
    {"attacks.key_trace_ms", "ms"},       {"zoo.find_us", "us"},
    {"zoo.load_ms", "ms"},                {"zoo.hit_ratio", "ratio"},
    {"zoo.score_cache_hit_ratio", "ratio"}, {"muxlink.job_ms_p50", "ms"},
    {"daemon.overhead_ms", "ms"},         {"daemon.requests_per_job", "count"},
    {"fleet.overhead_ms", "ms"},          {"fleet.retries", "count"},
    {"fleet.duplicate_results", "count"}, {"locking.lock_ms", "ms"},
    {"sim.hd_ms", "ms"},                  {"eval.cell_s_p50", "s"},
    {"eval.cell_s_max", "s"},             {"eval.parallel_eff", "ratio"},
};

// The `metric` lines: each workload's own names for figures of the e2e map
// below, which computes every number once. "" matches every workload.
struct Alias {
  const char* workload;
  const char* name;
  const char* unit;
  const char* e2e_key;
  double scale;
};
constexpr Alias kAliases[] = {
    {"cold_attack", "attack_s", "s", "op_ms_p50", 1e-3},
    {"cold_attack", "kpa_pct", "%", "kpa_pct", 1.0},
    {"warm_serve", "warm_job_ms_p50", "ms", "op_ms_p50", 1.0},
    {"warm_serve", "warm_job_ms_p90", "ms", "op_ms_p90", 1.0},
    {"warm_serve", "jobs_per_s", "1/s", "ops_per_s", 1.0},
    {"campaign_sweep", "campaign_s", "s", "op_ms_p50", 1e-3},
    {"campaign_sweep", "kpa_pct", "%", "kpa_pct", 1.0},
    {"", "setup_s", "s", "setup_s", 1.0},
    {"", "failed_frac", "ratio", "failed_frac", 1.0},
    {"", "peak_rss_mb", "MB", "peak_rss_mb", 1.0},
};

const std::map<std::string, std::function<void(const RunContext&, WorkloadResult&)>> kWorkloads = {
    {"cold_attack", run_cold_attack},
    {"warm_serve", run_warm_serve},
    {"campaign_sweep", run_campaign_sweep},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\nusage: muxbench --workload NAME --seed N --seconds S "
            << "--trace 0|1 [--source-id ID] [--git-sha SHA]\n";
  std::exit(1);
}

// `git_sha` comes from the caller at run time: the build records its commit
// when it is configured, and an incremental build keeps that value.
Json provenance(const std::string& source_id, const std::string& git_sha) {
  Json p = Json::object();
  p["cpu"] = muxlink::gnn::cpu_info_json();  // hardware_threads, ISA, SIMD mode
  p["pool_threads"] = static_cast<std::int64_t>(muxlink::common::num_threads());
  p["git_sha"] = git_sha;
  p["source_id"] = source_id;
  p["build_type"] = muxlink::common::build_type();
  p["build_flags"] = muxlink::common::build_flags();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + flag + "'");
    args[flag.substr(2)] = argv[i + 1];
  }
  for (const auto& [k, v] : args) {
    if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" && k != "source-id" &&
        k != "git-sha") {
      usage("unknown flag --" + k);
    }
  }
  const std::string workload = args["workload"];
  const auto run = kWorkloads.find(workload);
  if (run == kWorkloads.end()) usage("unknown workload '" + workload + "'");

  RunContext ctx;
  SpanLog spans;
  bool trace = false;
  try {
    ctx.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    ctx.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    trace = std::stoi(args.count("trace") ? args["trace"] : "0") != 0;
  } catch (const std::exception&) {
    usage("--seed, --seconds and --trace take numbers");
  }
  if (ctx.seed == 0 || ctx.seconds <= 0) usage("--seed and --seconds must be positive");
  if (trace) ctx.spans = &spans;

  const fs::path out_dir = ".bench_out";
  ctx.work_dir = fs::path(".bench_run") / (workload + "-" + std::to_string(::getpid()));
  const std::string tag = workload + "-seed" + std::to_string(ctx.seed);
  // The pool size is the host's thread count, whatever the environment says.
  muxlink::common::set_num_threads(std::max(1u, std::thread::hardware_concurrency()));

  WorkloadResult res;
  try {
    fs::remove_all(ctx.work_dir);
    fs::create_directories(ctx.work_dir);
    fs::create_directories(out_dir);
    run->second(ctx, res);
    fs::remove_all(ctx.work_dir);
    std::error_code ec;
    fs::remove(ctx.work_dir.parent_path(), ec);  // only when no other run uses it
  } catch (const std::exception& e) {
    std::error_code ec;
    fs::remove_all(ctx.work_dir, ec);
    std::cerr << "error: " << workload << ": " << e.what() << "\n";
    return 2;
  }

  const double peak_rss_mb =
      static_cast<double>(muxlink::common::peak_rss_bytes()) / (1024.0 * 1024.0);
  const double op_p50 = median(res.op_ms);
  // The p90 needs >= 10 samples beyond it (n >= 100); -1 marks too few.
  const std::optional<double> op_p90 = tail_quantile(res.op_ms, 0.9);
  const std::size_t attempted = res.tally.attempted();
  const std::size_t failed = res.tally.failed();
  // value and sample count (0 = not a sample statistic) of every e2e figure
  std::map<std::string, std::pair<double, std::size_t>> e2e = {
      {"setup_s", {median(res.setup_s), res.setup_s.size()}},
      {"op_ms_p50", {op_p50, res.op_ms.size()}},
      {"op_ms_p90", {op_p90 ? *op_p90 : -1.0, res.op_ms.size()}},
      {"ops_per_s", {res.loop_s > 0 ? res.ops_completed / res.loop_s : 0.0, res.ops_completed}},
      {"kpa_pct", {res.kpa_pct, res.kpa_n}},
      {"peak_rss_mb", {peak_rss_mb, 0}},
      {"failed_frac", {res.tally.failed_frac(), attempted}},
  };
  struct Named {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
  };
  std::vector<Named> named;
  for (const Alias& a : kAliases) {
    if (*a.workload != '\0' && workload != a.workload) continue;
    const auto& [value, n] = e2e.at(a.e2e_key);
    named.push_back({a.name, value * a.scale, a.unit, n});
  }

  std::map<std::string, double> layers = res.layers;
  if (trace) {
    const double threads = static_cast<double>(muxlink::common::num_threads());
    layers["common.pool.cpu_util"] = res.loop_s > 0 ? res.loop_cpu_s / (res.loop_s * threads) : 0;
    const double traced_p50 = median(res.traced_op_ms);
    layers["trace.overhead_pct"] = op_p50 > 0 ? 100.0 * (traced_p50 - op_p50) / op_p50 : 0.0;
  }

  const std::string source_id = args.count("source-id") ? args["source-id"] : "unknown";
  Json full = Json::object();
  full["workload"] = workload;
  full["seed"] = static_cast<std::int64_t>(ctx.seed);
  full["seconds"] = ctx.seconds;
  full["trace"] = trace;
  full["provenance"] = provenance(source_id, args.count("git-sha") ? args["git-sha"] : "unknown");
  Json named_json = Json::object();
  for (const auto& m : named) {
    Json j = Json::object();
    j["value"] = m.value;
    j["unit"] = m.unit;
    j["n"] = static_cast<std::int64_t>(m.n);
    named_json[m.name] = std::move(j);
  }
  full["named"] = std::move(named_json);
  const std::pair<const char*, const std::vector<double>*> samples_of[] = {
      {"op_ms", &res.op_ms}, {"traced_op_ms", &res.traced_op_ms}, {"setup_s", &res.setup_s}};
  for (const auto& [key, samples] : samples_of) {
    Json arr = Json::array();
    for (const double v : *samples) arr.push_back(v);
    full[std::string("samples_") + key] = std::move(arr);
  }
  Json errors = Json::array();
  for (const auto& e : res.errors) errors.push_back(e);
  full["errors"] = std::move(errors);

  std::cout << std::setprecision(10);
  std::cout << "# workload " << workload << " seed " << ctx.seed << " seconds " << ctx.seconds
            << " trace " << (trace ? 1 : 0) << "\n";
  std::cout << "# provenance " << full["provenance"].dump() << "\n";
  for (const auto& m : named) {
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit << " n=" << m.n << "\n";
  }
  for (const auto& e : res.errors) std::cout << "# gate failure: " << e << "\n";

  Json metrics = Json::object();
  auto put = [&](const MetricDef& d, double v, std::size_t n) {
    Json j = Json::object();
    j["value"] = v;
    j["unit"] = d.unit;
    metrics[d.name] = std::move(j);
    std::cout << (trace ? "layer " : "e2e ") << d.name << " " << v << " " << d.unit << " n=" << n
              << "\n";
  };
  if (trace) {
    for (const auto& d : kPerLayer) {
      const auto it = layers.find(d.name);
      put(d, it == layers.end() ? 0.0 : it->second, 0);
    }
    const auto all = spans.spans();
    for (const auto& [name, st] : summarize_spans(all)) {
      std::cout << "span " << name << " count=" << st.count << " total_s=" << st.total_seconds
                << " self_s=" << st.self_seconds << "\n";
    }
    spans.write_jsonl((out_dir / (tag + ".spans.jsonl")).string());
  } else {
    for (const auto& d : kEndToEnd) put(d, e2e[d.name].first, e2e[d.name].second);
  }
  full["metrics"] = metrics;
  {
    std::ofstream os(out_dir / (tag + "-trace" + (trace ? "1" : "0") + ".json"));
    os << full.dump_pretty() << "\n";
  }

  const bool correct = failed == 0 && attempted > 0;
  Json line = Json::object();
  line["correct"] = correct;
  line["attempted"] = static_cast<std::int64_t>(attempted);
  line["failed"] = static_cast<std::int64_t>(failed);
  line["metrics"] = std::move(metrics);
  std::cout << line.dump() << std::endl;
  return correct ? 0 : 3;
}
