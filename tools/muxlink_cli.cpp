// muxlink — command-line front end for the whole tool chain.
//
//   muxlink gen <benchmark> [--scale S] [--out file.bench]
//   muxlink stats <file.bench>
//   muxlink lock <file.bench> --scheme dmux|symmetric|simll|deceptive|
//                                      naive|xor|trll
//                [--key-bits N] [--seed S] [--out locked.bench]
//                [--key-out key.txt] [--allow-partial]
//   muxlink attack <locked.bench> [--hops H] [--th T] [--epochs E]
//                  [--lr L] [--links N] [--seed S]
//                  [--key-out key.txt] [--recover out.bench]
//                  [--report run.json] [--telemetry epochs.jsonl]
//                  [--truth-key key.txt|BITS] [--orig orig.bench]
//                  [--scheme LABEL] [--patterns N]
//                  [--checkpoint-dir D] [--checkpoint-every N] [--resume]
//                  [--clip-grad X] [--save-model model.txt] [--simd MODE]
//                  [--zoo] [--zoo-dir D] [--warm-start REF]
//                  [--warm-epochs N] [--warm-lr-scale X] [--no-score-cache]
//   muxlink untangle <locked.bench>  (UNTANGLE-style routing-query mode;
//                  same flags as attack minus --th / checkpointing)
//   muxlink campaign [--schemes A,B] [--circuits X,Y] [--attacks M,N]
//                  [--key-bits N] [--scale S] [--seed S] [--hops H]
//                  [--th T] [--epochs E] [--lr L] [--links N]
//                  [--hd-patterns N] [--workers W] [--out-dir D]
//                  [--zoo] [--zoo-dir D] [--resume] [--report F]
//   muxlink zoo list|info|gc|pin|unpin [<key>] [--zoo-dir D]
//                  [--max-bytes N]
//   muxlink saam <locked.bench>
//   muxlink scope <locked.bench>
//   muxlink hd <a.bench> <b.bench> [--patterns N] [--key BITSTRING]
//   muxlink submit <locked.bench> [--attack muxlink|untangle]
//                  [attack flags] [--timeout S] [--daemon ADDR] [--wait]
//                  [--report F] [--key-out F]
//   muxlink status <job-id> [--daemon ADDR]
//   muxlink result <job-id> [--daemon ADDR] [--wait] [--report F]
//                  [--key-out F]
//   muxlink cancel <job-id> [--daemon ADDR]
//   muxlink daemon stats|shutdown [--daemon ADDR]
//
// Exit-code taxonomy (DESIGN.md §8):
//   0 success
//   1 CLI misuse (unknown flag, bad argument)
//   2 other processing errors (including a submitted job reporting failure)
//   3 input parse/validation errors (BENCH / Verilog / netlist)
//   4 model-file format errors (bad magic/version, CRC mismatch, truncation)
//   5 checkpoint errors (corrupt/torn/incompatible --resume state)
//   6 daemon/protocol errors (MXRPC1 framing violations, unreachable or
//     refusing daemon, version rejection)
#include <cctype>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>

#include "attacks/constprop.h"
#include "attacks/metrics.h"
#include "attacks/saam.h"
#include "common/cpu_features.h"
#include "common/run_manifest.h"
#include "common/thread_pool.h"
#include "daemon/client.h"
#include "gnn/checkpoint.h"
#include "gnn/serialize.h"
#include "gnn/simd.h"
#include "circuitgen/suites.h"
#include "eval/campaign.h"
#include "eval/table.h"
#include "locking/mux_lock.h"
#include "locking/schemes.h"
#include "muxlink/attack.h"
#include "muxlink/job.h"
#include "muxlink/untangle.h"
#include "netlist/analysis.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"
#include "sim/simulator.h"
#include "tools/cli_args.h"
#include "zoo/model_blob.h"
#include "zoo/registry.h"

namespace {

using namespace muxlink;
using tools::CliArgs;

// .v / .sv files use structural Verilog; everything else is BENCH.
bool is_verilog(const std::string& path) {
  return path.ends_with(".v") || path.ends_with(".sv");
}

netlist::Netlist read_design(const std::string& path) {
  return is_verilog(path) ? netlist::read_verilog_file(path) : netlist::read_bench_file(path);
}

void write_design(const netlist::Netlist& nl, const std::string& path) {
  if (is_verilog(path)) {
    netlist::write_verilog_file(nl, path);
  } else {
    netlist::write_bench_file(nl, path);
  }
}

int usage() {
  std::cerr <<
      R"(usage: muxlink <command> [options]

BENCH files by default; *.v / *.sv are read/written as structural Verilog.

commands:
  gen <benchmark> [--scale S] [--out F]        generate a named benchmark
  stats <file.bench>                           structural summary
  lock <file.bench> --scheme X [--key-bits N]  lock a design
       [--seed S] [--out F] [--key-out F] [--allow-partial]
  attack <locked.bench> [--hops H] [--th T]    run the MuxLink attack
       [--epochs E] [--lr L] [--links N] [--seed S]
       [--key-out F] [--recover F] [--threads N]
       [--report F]      write a muxlink.run/v1 JSON manifest (stage timings,
                         metrics snapshot, results) to F
       [--telemetry F]   stream per-epoch training telemetry (loss, AUC,
                         grad norm) to F as JSONL
       [--truth-key V]   ground-truth key (file or literal bitstring):
                         adds AC/PC/KPA to the report
       [--orig F]        original design: adds recovered-design HD% to the
                         report (averaged over completions of X bits)
       [--patterns N]    simulation patterns for --orig HD (default 10000)
       [--scheme LABEL]  locking-scheme label recorded in the report
       [--checkpoint-dir D]    write crash-safe training checkpoints into D
       [--checkpoint-every N]  epochs between checkpoint writes (default 1)
       [--resume]        restore training from --checkpoint-dir and finish
                         bit-identical to an uninterrupted run
       [--clip-grad X]   clip each batch's mean gradient to L2 norm <= X
       [--save-model F]  save the trained DGCNN (CRC-guarded text format)
       [--simd MODE]     training kernel set: auto (default), avx2, scalar;
                         also settable via MUXLINK_SIMD. avx2 errors out on
                         hardware without AVX2+FMA instead of downgrading
       [--zoo]           serve/register trained models in the content-
                         addressed zoo; a repeated run mmaps the stored
                         weights and skips sampling + training entirely
       [--zoo-dir D]     registry directory (default: MUXLINK_ZOO env, else
                         ~/.cache/muxlink/zoo)
       [--warm-start R]  fine-tune from a zoo key or blob file instead of
                         training from scratch (implies --zoo)
       [--warm-epochs N] fine-tuning epoch budget (default epochs/4, min 1)
       [--warm-lr-scale X]  fine-tuning LR = --lr * X (default 0.1)
       [--no-score-cache]   disable the per-link score cache
       [--deterministic] run through the shared job runner and emit the
                         DETERMINISTIC manifest variant (no stage timings,
                         no metrics snapshot; byte-identical to the same
                         job run through muxlinkd at any worker count)
  untangle <locked.bench>                      UNTANGLE-style routing-query
       [--hops H] [--epochs E] [--lr L] ...    mode: per-tree argmax commit,
                                               never abstains; shares the
                                               attack flags minus --th and
                                               checkpointing
  campaign [--schemes A,B] [--circuits X,Y]    defense x attack sweep; one
       [--attacks muxlink,untangle]            manifest per cell + one
       [--key-bits N] [--scale S] [--seed S]   deterministic aggregate
       [--hops H] [--th T] [--epochs E]        (byte-identical for any
       [--lr L] [--links N] [--hd-patterns N]  --workers value)
       [--workers W] [--out-dir D] [--resume]
       [--zoo] [--zoo-dir D] [--report F]
       [--fleet ADDR,ADDR,...]                 dispatch cells to muxlinkd
       [--fleet-spool D] [--fleet-hedge-ms N]  backends (muxlink-coord
       [--fleet-max-attempts N]                semantics; aggregate stays
       [--fleet-retry-budget N]                byte-identical to a local
       [--fleet-dispatch-timeout-ms N]         run)
       [--fleet-no-local-fallback]
  zoo list [--zoo-dir D]                       registry entries, LRU first
  zoo info <key> [--zoo-dir D]                 one entry's stored metadata
  zoo gc --max-bytes N [--zoo-dir D]           evict LRU entries over budget
  zoo pin|unpin <key> [--zoo-dir D]            protect an entry from gc
  saam <locked.bench>                          structural SAAM attack
  scope <locked.bench>                         unsupervised SCOPE attack
  hd <a.bench> <b.bench> [--patterns N]        output Hamming distance
       [--key BITSTRING] [--threads N]         (key pins for b's keyinputs)

daemon client (MXRPC1 over unix socket or tcp; see muxlinkd --help):
  submit <locked.bench> [--attack muxlink|untangle] [attack flags]
       [--timeout S] [--daemon ADDR] [--wait] [--report F] [--key-out F]
                                               queue a job on a muxlinkd
  status <job-id> [--daemon ADDR]              job lifecycle state
  result <job-id> [--daemon ADDR] [--wait]     fetch the result manifest
       [--report F] [--key-out F]
  cancel <job-id> [--daemon ADDR]              cancel a queued job
  daemon stats|shutdown [--daemon ADDR]        daemon.* metrics / drain

--daemon ADDR is unix:PATH, tcp:HOST:PORT, or a bare socket path
(default: MUXLINK_DAEMON env, else /tmp/muxlinkd-<uid>.sock).

--threads N caps the worker pool (default: MUXLINK_THREADS env or all
hardware threads). Results are bit-identical for any thread count.
)";
  return 1;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write '" + path + "'");
  os << text;
}

int cmd_gen(const CliArgs& args) {
  args.allow_only({"scale", "out"});
  if (args.positional().size() != 1) return usage();
  const auto nl =
      circuitgen::make_benchmark(args.positional()[0], args.get_double("scale", 1.0));
  if (const auto out = args.get("out")) {
    write_design(nl, *out);
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << netlist::write_bench(nl);
  }
  return 0;
}

int cmd_stats(const CliArgs& args) {
  args.allow_only({});
  if (args.positional().size() != 1) return usage();
  const auto nl = read_design(args.positional()[0]);
  std::cout << nl.name() << ": " << netlist::format_stats(netlist::compute_stats(nl));
  const auto keys = attacks::find_key_inputs(nl);
  if (!keys.empty()) std::cout << "  key inputs: " << keys.size() << "\n";
  return 0;
}

int cmd_lock(const CliArgs& args) {
  args.allow_only({"scheme", "key-bits", "seed", "out", "key-out", "allow-partial"});
  if (args.positional().size() != 1) return usage();
  const auto nl = read_design(args.positional()[0]);
  locking::MuxLockOptions opts;
  opts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 64));
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.allow_partial = args.has("allow-partial");
  const std::string scheme = args.get_or("scheme", "dmux");
  // resolve_scheme throws std::invalid_argument (exit 1) listing the valid
  // names — the same resolver campaign and the zoo key labeling go through.
  const locking::LockedDesign d = locking::resolve_scheme(scheme)(nl, opts);
  std::cout << "locked with " << d.key_size() << " key bits (" << d.scheme
            << "); key = " << d.key_string() << "\n";
  if (const auto out = args.get("out")) {
    write_design(d.netlist, *out);
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << netlist::write_bench(d.netlist);
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, d.key_string() + "\n");
  return 0;
}

std::string render_key(const std::vector<locking::KeyBit>& key) {
  std::string s;
  for (locking::KeyBit b : key) s.push_back(locking::to_char(b));
  return s;
}

// --truth-key accepts either a file holding the bitstring or the bitstring
// itself.
std::vector<std::uint8_t> read_truth_key(const std::string& value) {
  std::string text = value;
  if (std::ifstream is(value); is) {
    std::getline(is, text);
  }
  std::vector<std::uint8_t> bits;
  bits.reserve(text.size());
  for (char c : text) {
    if (c == '0' || c == '1') {
      bits.push_back(static_cast<std::uint8_t>(c - '0'));
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      throw std::invalid_argument("--truth-key: '" + value +
                                  "' is neither a readable file nor a bitstring");
    }
  }
  if (bits.empty()) throw std::invalid_argument("--truth-key: empty key");
  return bits;
}

// HD between the original design and the recovered one. Undeciphered key
// bits leave their key inputs free in `recovered`; following the paper's
// Fig. 8 protocol, the HD is averaged over completions of those bits
// (enumerated up to 2^4, sampled beyond that).
double report_hd_percent(const netlist::Netlist& orig, const netlist::Netlist& recovered,
                         std::size_t patterns, std::uint64_t seed) {
  sim::HammingOptions hopts;
  hopts.num_patterns = patterns;
  // The undecided key inputs are whatever inputs the recovered design has
  // beyond the original's (find_key_inputs needs contiguous indices, which
  // a partially recovered design no longer has).
  std::vector<std::string> free_keys;
  for (netlist::GateId g : recovered.inputs()) {
    const std::string& name = recovered.gate(g).name;
    if (name.starts_with("keyinput")) free_keys.push_back(name);
  }
  if (free_keys.empty()) return sim::hamming_distance_percent(orig, recovered, hopts);
  const std::size_t n = free_keys.size();
  const bool enumerate = n <= 4;
  const std::size_t completions = enumerate ? (std::size_t{1} << n) : 16;
  std::mt19937_64 rng(seed);
  double sum = 0.0;
  for (std::size_t c = 0; c < completions; ++c) {
    hopts.extra_inputs_b.clear();
    const std::uint64_t bits = enumerate ? c : rng();
    for (std::size_t i = 0; i < n; ++i) {
      hopts.extra_inputs_b.emplace_back(free_keys[i], ((bits >> i) & 1) != 0);
    }
    sum += sim::hamming_distance_percent(orig, recovered, hopts);
  }
  return sum / static_cast<double>(completions);
}

// Builds the self-contained AttackJobSpec shared by `submit` and the
// --deterministic one-shot path: netlists are inlined as canonical BENCH
// text (Verilog inputs are converted), so the same spec means the same job
// whether it runs here or inside a muxlinkd worker.
core::AttackJobSpec spec_from_args(const CliArgs& args, const std::string& attack_name) {
  core::AttackJobSpec spec;
  spec.attack = attack_name;
  const auto locked = read_design(args.positional()[0]);
  spec.circuit = locked.name();
  spec.bench = netlist::write_bench(locked);
  spec.hops = static_cast<int>(args.get_long("hops", 3));
  if (attack_name == "muxlink") spec.threshold = args.get_double("th", 0.01);
  spec.epochs = static_cast<int>(args.get_long("epochs", 30));
  spec.learning_rate = args.get_double("lr", 1e-3);
  spec.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  spec.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  spec.scheme = args.get_or("scheme", "");
  if (!spec.scheme.empty()) locking::resolve_scheme(spec.scheme);
  spec.zoo_dir = args.get_or("zoo-dir", "");
  spec.use_zoo = args.has("zoo") || args.has("zoo-dir");
  spec.score_cache = !args.has("no-score-cache");
  if (const auto truth = args.get("truth-key")) {
    const auto bits = read_truth_key(*truth);
    spec.truth_key.reserve(bits.size());
    for (const auto b : bits) spec.truth_key.push_back(b != 0 ? '1' : '0');
  }
  if (const auto orig = args.get("orig")) {
    spec.orig_bench = netlist::write_bench(read_design(*orig));
  }
  spec.hd_patterns = static_cast<std::size_t>(args.get_long("patterns", 10000));
  return spec;
}

// attack/untangle --deterministic: run the job through the shared runner and
// report only scheduling-invariant data. --report then writes EXACTLY the
// bytes a muxlinkd worker would produce for the same spec.
int run_deterministic(const CliArgs& args, const std::string& attack_name) {
  for (const char* flag : {"telemetry", "checkpoint-dir", "checkpoint-every", "resume",
                           "clip-grad", "save-model", "warm-start", "warm-epochs",
                           "warm-lr-scale"}) {
    if (args.has(flag)) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " is not available with --deterministic (it is not part of an "
                                  "AttackJobSpec)");
    }
  }
  const core::AttackJobSpec spec = spec_from_args(args, attack_name);
  const core::AttackJobOutcome outcome = core::run_attack_job(spec);
  std::cout << "deciphered key = " << outcome.key_string << "\n";
  std::cout << "deterministic manifest results (" << outcome.total_seconds << "s wall):\n";
  if (const auto* results = outcome.manifest.find("results")) {
    for (const auto& [name, value] : results->members()) {
      std::cout << "  " << name << " = " << value.dump() << "\n";
    }
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, outcome.key_string + "\n");
  if (const auto out = args.get("recover")) {
    const auto locked = netlist::parse_bench(spec.bench, spec.circuit);
    write_design(core::recover_design(locked, outcome.key), *out);
    std::cout << "wrote " << *out << "\n";
  }
  if (const auto report = args.get("report")) {
    write_text(*report, outcome.manifest.dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

int cmd_attack(const CliArgs& args) {
  args.allow_only({"hops", "th", "epochs", "lr", "links", "seed", "key-out", "recover",
                   "threads", "report", "telemetry", "truth-key", "orig", "scheme",
                   "patterns", "checkpoint-dir", "checkpoint-every", "resume", "clip-grad",
                   "save-model", "simd", "zoo", "zoo-dir", "warm-start", "warm-epochs",
                   "warm-lr-scale", "no-score-cache", "deterministic"});
  if (args.positional().size() != 1) return usage();
  if (const long t = args.get_long("threads", 0); t > 0) {
    common::set_num_threads(static_cast<std::size_t>(t));
  }
  if (const auto simd = args.get("simd")) {
    common::set_simd_mode(common::parse_simd_mode(*simd));
  }
  if (args.has("deterministic")) return run_deterministic(args, "muxlink");
  const auto locked = read_design(args.positional()[0]);
  core::MuxLinkOptions opts;
  opts.hops = static_cast<int>(args.get_long("hops", 3));
  opts.threshold = args.get_double("th", 0.01);
  opts.epochs = static_cast<int>(args.get_long("epochs", 30));
  opts.learning_rate = args.get_double("lr", 1e-3);
  opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.telemetry_path = args.get_or("telemetry", "");
  opts.checkpoint_dir = args.get_or("checkpoint-dir", "");
  opts.checkpoint_every = static_cast<int>(args.get_long("checkpoint-every", 1));
  opts.resume = args.has("resume");
  opts.clip_grad = args.get_double("clip-grad", 0.0);
  opts.model_out = args.get_or("save-model", "");
  opts.scheme = args.get_or("scheme", "");
  // The label is folded into the zoo key, so an unknown name would silently
  // shard the registry; validate through the shared resolver (exit 1).
  if (!opts.scheme.empty()) locking::resolve_scheme(opts.scheme);
  opts.zoo_dir = args.get_or("zoo-dir", "");
  opts.warm_start = args.get_or("warm-start", "");
  opts.warm_epochs = static_cast<int>(args.get_long("warm-epochs", 0));
  opts.warm_lr_scale = args.get_double("warm-lr-scale", 0.1);
  opts.use_zoo = args.has("zoo") || args.has("zoo-dir") || !opts.warm_start.empty();
  opts.score_cache = !args.has("no-score-cache");
  if (opts.resume && opts.checkpoint_dir.empty()) {
    throw std::invalid_argument("--resume requires --checkpoint-dir");
  }
  core::MuxLinkAttack attack(opts);
  const auto result = attack.run(locked);
  std::cout << "deciphered key = " << render_key(result.key) << "\n";
  std::cout << "trained on " << result.training_links << " links (val acc "
            << result.training.best_val_accuracy << "), " << result.total_seconds << "s total\n";
  std::cout << "stages: sample " << result.sample_seconds << "s, train " << result.train_seconds
            << "s, score " << result.score_seconds << "s (" << result.threads << " threads)\n";
  if (result.training.resumed_from_epoch > 0) {
    std::cout << "resumed from checkpoint at epoch " << result.training.resumed_from_epoch
              << "\n";
  }
  if (result.training.rollbacks > 0) {
    std::cout << "divergence rollbacks: " << result.training.rollbacks << "\n";
  }
  if (result.serving.zoo_enabled) {
    std::cout << "zoo " << (result.serving.zoo_hit ? "hit" : "miss") << " ("
              << result.serving.zoo_key << ")";
    if (result.serving.zoo_hit) {
      std::cout << ", " << result.serving.bytes_mapped << " bytes mapped";
    }
    if (result.serving.warm_start) std::cout << ", warm-started";
    if (result.serving.cache_hits + result.serving.cache_misses > 0) {
      std::cout << "; score cache " << result.serving.cache_hits << "/"
                << (result.serving.cache_hits + result.serving.cache_misses) << " hits";
    }
    std::cout << "\n";
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, render_key(result.key) + "\n");

  std::optional<attacks::KeyPredictionScore> score;
  if (const auto truth = args.get("truth-key")) {
    const auto bits = read_truth_key(*truth);
    if (bits.size() != result.key.size()) {
      throw std::invalid_argument("--truth-key length " + std::to_string(bits.size()) +
                                  " != " + std::to_string(result.key.size()) + " deciphered bits");
    }
    score = attacks::score_key(bits, result.key);
    std::cout << "vs ground truth: " << score->to_string() << "\n";
  }

  std::optional<netlist::Netlist> recovered;
  if (args.has("recover") || args.has("orig")) {
    recovered = core::recover_design(locked, result.key);
  }
  if (const auto out = args.get("recover")) {
    write_design(*recovered, *out);
    std::cout << "wrote " << *out << "\n";
  }
  std::optional<double> hd;
  if (const auto orig_path = args.get("orig")) {
    const auto orig = read_design(*orig_path);
    hd = report_hd_percent(orig, *recovered,
                           static_cast<std::size_t>(args.get_long("patterns", 10000)), opts.seed);
    std::cout << "HD vs " << orig.name() << " = " << *hd << "%\n";
  }

  if (const auto report = args.get("report")) {
    common::RunManifest m = common::make_run_manifest("muxlink attack");
    m.seed = opts.seed;
    m.circuit = locked.name();
    m.scheme = args.get_or("scheme", "");
    m.key_bits = static_cast<std::int64_t>(result.key.size());
    m.add_stage("sample", result.sample_seconds);
    m.add_stage("train", result.train_seconds);
    m.add_stage("score", result.score_seconds);
    m.add_stage("total", result.total_seconds);
    m.add_result("best_val_accuracy", result.training.best_val_accuracy);
    m.add_result("training_links", static_cast<double>(result.training_links));
    m.add_result("target_links", static_cast<double>(result.target_links));
    std::size_t undecided = 0;
    for (locking::KeyBit b : result.key) undecided += b == locking::KeyBit::kUnknown ? 1 : 0;
    m.add_result("key_bits_decided", static_cast<double>(result.key.size() - undecided));
    m.add_result("key_bits_undecided", static_cast<double>(undecided));
    if (score) {
      m.add_result("accuracy_percent", score->accuracy_percent());
      m.add_result("precision_percent", score->precision_percent());
      m.add_result("kpa_percent", score->kpa_percent());
    }
    if (hd) m.add_result("hd_percent", *hd);
    m.telemetry_path = opts.telemetry_path;
    common::Json extra = common::Json::object();
    extra["hops"] = opts.hops;
    extra["threshold"] = opts.threshold;
    extra["epochs"] = opts.epochs;
    extra["learning_rate"] = opts.learning_rate;
    extra["sortpool_k"] = result.sortpool_k;
    extra["feature_dim"] = result.feature_dim;
    extra["deciphered_key"] = render_key(result.key);
    extra["rollbacks"] = result.training.rollbacks;
    extra["resumed_from_epoch"] = result.training.resumed_from_epoch;
    extra["cpu"] = gnn::cpu_info_json();
    if (result.serving.zoo_enabled) {
      common::Json serving = common::Json::object();
      serving["zoo_hit"] = result.serving.zoo_hit;
      serving["warm_start"] = result.serving.warm_start;
      serving["zoo_key"] = result.serving.zoo_key;
      serving["cache_hits"] = result.serving.cache_hits;
      serving["cache_misses"] = result.serving.cache_misses;
      serving["bytes_mapped"] = static_cast<long long>(result.serving.bytes_mapped);
      extra["serving"] = std::move(serving);
    }
    m.extra = std::move(extra);
    m.observability = common::observability_to_json();
    write_text(*report, m.to_json().dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

// muxlink untangle — UNTANGLE-style routing-query mode over the shared
// scoring engine: per-tree argmax commit, no δ abstention.
int cmd_untangle(const CliArgs& args) {
  args.allow_only({"hops", "epochs", "lr", "links", "seed", "key-out", "recover", "threads",
                   "report", "truth-key", "orig", "scheme", "patterns", "simd", "zoo",
                   "zoo-dir", "no-score-cache", "deterministic"});
  if (args.positional().size() != 1) return usage();
  if (const long t = args.get_long("threads", 0); t > 0) {
    common::set_num_threads(static_cast<std::size_t>(t));
  }
  if (const auto simd = args.get("simd")) {
    common::set_simd_mode(common::parse_simd_mode(*simd));
  }
  if (args.has("deterministic")) return run_deterministic(args, "untangle");
  const auto locked = read_design(args.positional()[0]);
  core::MuxLinkOptions opts;
  opts.hops = static_cast<int>(args.get_long("hops", 3));
  opts.epochs = static_cast<int>(args.get_long("epochs", 30));
  opts.learning_rate = args.get_double("lr", 1e-3);
  opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.scheme = args.get_or("scheme", "");
  if (!opts.scheme.empty()) locking::resolve_scheme(opts.scheme);
  opts.zoo_dir = args.get_or("zoo-dir", "");
  opts.use_zoo = args.has("zoo") || args.has("zoo-dir");
  opts.score_cache = !args.has("no-score-cache");
  core::UntangleAttack attack(opts);
  const auto result = attack.run(locked);
  std::cout << "deciphered key = " << render_key(result.key) << "\n";
  std::cout << result.queries.size() << " routing queries over " << result.target_links
            << " candidate wires; trained on " << result.training_links << " links (val acc "
            << result.training.best_val_accuracy << "), " << result.total_seconds
            << "s total\n";
  if (result.serving.zoo_enabled) {
    std::cout << "zoo " << (result.serving.zoo_hit ? "hit" : "miss") << " ("
              << result.serving.zoo_key << ")\n";
  }
  if (const auto key_out = args.get("key-out")) write_text(*key_out, render_key(result.key) + "\n");

  std::optional<attacks::KeyPredictionScore> score;
  if (const auto truth = args.get("truth-key")) {
    const auto bits = read_truth_key(*truth);
    if (bits.size() != result.key.size()) {
      throw std::invalid_argument("--truth-key length " + std::to_string(bits.size()) +
                                  " != " + std::to_string(result.key.size()) + " deciphered bits");
    }
    score = attacks::score_key(bits, result.key);
    std::cout << "vs ground truth: " << score->to_string() << "\n";
  }

  std::optional<netlist::Netlist> recovered;
  if (args.has("recover") || args.has("orig")) {
    recovered = core::recover_design(locked, result.key);
  }
  if (const auto out = args.get("recover")) {
    write_design(*recovered, *out);
    std::cout << "wrote " << *out << "\n";
  }
  std::optional<double> hd;
  if (const auto orig_path = args.get("orig")) {
    const auto orig = read_design(*orig_path);
    hd = report_hd_percent(orig, *recovered,
                           static_cast<std::size_t>(args.get_long("patterns", 10000)), opts.seed);
    std::cout << "HD vs " << orig.name() << " = " << *hd << "%\n";
  }

  if (const auto report = args.get("report")) {
    common::RunManifest m = common::make_run_manifest("muxlink untangle");
    m.seed = opts.seed;
    m.circuit = locked.name();
    m.scheme = args.get_or("scheme", "");
    m.key_bits = static_cast<std::int64_t>(result.key.size());
    m.add_stage("sample", result.sample_seconds);
    m.add_stage("train", result.train_seconds);
    m.add_stage("score", result.score_seconds);
    m.add_stage("total", result.total_seconds);
    m.add_result("best_val_accuracy", result.training.best_val_accuracy);
    m.add_result("training_links", static_cast<double>(result.training_links));
    m.add_result("target_links", static_cast<double>(result.target_links));
    m.add_result("routing_queries", static_cast<double>(result.queries.size()));
    std::size_t undecided = 0;
    for (locking::KeyBit b : result.key) undecided += b == locking::KeyBit::kUnknown ? 1 : 0;
    m.add_result("key_bits_decided", static_cast<double>(result.key.size() - undecided));
    m.add_result("key_bits_undecided", static_cast<double>(undecided));
    if (score) {
      m.add_result("accuracy_percent", score->accuracy_percent());
      m.add_result("precision_percent", score->precision_percent());
      m.add_result("kpa_percent", score->kpa_percent());
    }
    if (hd) m.add_result("hd_percent", *hd);
    common::Json extra = common::Json::object();
    extra["hops"] = opts.hops;
    extra["epochs"] = opts.epochs;
    extra["deciphered_key"] = render_key(result.key);
    m.extra = std::move(extra);
    m.observability = common::observability_to_json();
    write_text(*report, m.to_json().dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// muxlink campaign — the defense x attack sweep (eval/campaign.h).
int cmd_campaign(const CliArgs& args) {
  args.allow_only({"schemes", "circuits", "attacks", "key-bits", "scale", "seed", "hops", "th",
                   "epochs", "lr", "links", "hd-patterns", "workers", "out-dir", "zoo",
                   "zoo-dir", "resume", "report", "fleet", "fleet-spool", "fleet-hedge-ms",
                   "fleet-max-attempts", "fleet-retry-budget", "fleet-dispatch-timeout-ms",
                   "fleet-no-local-fallback"});
  if (!args.positional().empty()) return usage();
  eval::CampaignOptions opts;
  if (const auto v = args.get("schemes")) opts.schemes = split_list(*v);
  if (const auto v = args.get("circuits")) opts.circuits = split_list(*v);
  if (const auto v = args.get("attacks")) opts.attacks = split_list(*v);
  opts.key_bits = static_cast<std::size_t>(args.get_long("key-bits", 16));
  opts.circuit_scale = args.get_double("scale", 1.0);
  opts.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  opts.hops = static_cast<int>(args.get_long("hops", 2));
  opts.threshold = args.get_double("th", 0.01);
  opts.epochs = static_cast<int>(args.get_long("epochs", 10));
  opts.learning_rate = args.get_double("lr", 1e-3);
  opts.max_train_links = static_cast<std::size_t>(args.get_long("links", 100000));
  opts.hd_patterns = static_cast<std::size_t>(args.get_long("hd-patterns", 2000));
  opts.out_dir = args.get_or("out-dir", "campaign");
  opts.zoo_dir = args.get_or("zoo-dir", "");
  opts.use_zoo = args.has("zoo") || args.has("zoo-dir");
  opts.resume = args.has("resume");
  // Fleet mode (DESIGN.md §14): dispatch every cell's attack to these
  // muxlinkd backends. The aggregate stays byte-identical to a local run.
  if (const auto v = args.get("fleet")) opts.fleet_backends = split_list(*v);
  opts.fleet_spool_dir = args.get_or("fleet-spool", "");
  opts.fleet_hedge_after_ms = static_cast<int>(args.get_long("fleet-hedge-ms", 0));
  opts.fleet_max_attempts = static_cast<int>(args.get_long("fleet-max-attempts", 4));
  opts.fleet_retry_budget = static_cast<int>(args.get_long("fleet-retry-budget", 64));
  opts.fleet_dispatch_timeout_ms = args.get_long("fleet-dispatch-timeout-ms", 0);
  opts.fleet_local_fallback = !args.has("fleet-no-local-fallback");
  if (const long w = args.get_long("workers", 0); w > 0) {
    common::set_num_threads(static_cast<std::size_t>(w));
  }

  const auto result = eval::run_campaign(opts);

  eval::Table table({"scheme", "circuit", "attack", "K", "AC%", "PC%", "KPA%", "HD%"});
  for (const auto& c : result.cells) {
    table.add_row({c.scheme, c.circuit, c.attack, std::to_string(c.key_bits),
                   eval::Table::num(c.accuracy_percent), eval::Table::num(c.precision_percent),
                   eval::Table::num(c.kpa_percent), eval::Table::num(c.hd_percent)});
  }
  std::cout << table.to_string();
  std::cout << result.cells.size() << " cells (" << result.resumed_cells
            << " resumed), aggregate manifest: " << result.aggregate_path << "\n";
  if (const auto report = args.get("report")) {
    write_text(*report, result.aggregate.to_json().dump_pretty() + "\n");
    std::cout << "wrote " << *report << "\n";
  }
  return 0;
}

// muxlink zoo <list|info|gc|pin|unpin> — registry maintenance.
int cmd_zoo(const CliArgs& args) {
  args.allow_only({"zoo-dir", "max-bytes"});
  if (args.positional().empty()) return usage();
  const std::string verb = args.positional()[0];
  const zoo::Registry registry(zoo::Registry::resolve_dir(args.get_or("zoo-dir", "")));

  if (verb == "list") {
    if (args.positional().size() != 1) return usage();
    const auto entries = registry.list();
    std::uintmax_t total = 0;
    for (const auto& e : entries) {
      std::cout << (e.pinned ? "* " : "  ") << e.key << "  " << e.bytes << " bytes\n";
      total += e.bytes;
    }
    std::cout << entries.size() << " entries, " << total << " bytes in " << registry.dir()
              << " (* = pinned, least recently used first)\n";
    return 0;
  }
  if (verb == "info") {
    if (args.positional().size() != 2) return usage();
    const std::string& key = args.positional()[1];
    const auto path = registry.entry_path(key);
    std::cout << zoo::read_blob_meta(path).dump_pretty() << "\n";
    std::cout << "path: " << path << (registry.pinned(key) ? " (pinned)" : "") << "\n";
    return 0;
  }
  if (verb == "gc") {
    if (args.positional().size() != 1) return usage();
    const auto max_bytes = args.get_long("max-bytes", -1);
    if (max_bytes < 0) throw std::invalid_argument("zoo gc requires --max-bytes");
    const auto r = registry.gc(static_cast<std::uintmax_t>(max_bytes));
    for (const auto& key : r.evicted) std::cout << "evicted " << key << "\n";
    std::cout << "freed " << r.bytes_freed << " bytes, kept " << r.bytes_kept << "\n";
    return 0;
  }
  if (verb == "pin" || verb == "unpin") {
    if (args.positional().size() != 2) return usage();
    const std::string& key = args.positional()[1];
    if (!registry.contains(key)) {
      throw zoo::ZooError("no registry entry '" + key + "' in " + registry.dir().string());
    }
    if (verb == "pin") {
      registry.pin(key);
    } else {
      registry.unpin(key);
    }
    std::cout << (verb == "pin" ? "pinned " : "unpinned ") << key << "\n";
    return 0;
  }
  return usage();
}

int cmd_simple_attack(const CliArgs& args, bool saam) {
  args.allow_only({});
  if (args.positional().size() != 1) return usage();
  const auto locked = read_design(args.positional()[0]);
  const auto key = saam ? attacks::saam_attack(locked) : attacks::scope_attack(locked);
  std::cout << "deciphered key = " << render_key(key) << "\n";
  return 0;
}

int cmd_hd(const CliArgs& args) {
  args.allow_only({"patterns", "key", "threads"});
  if (args.positional().size() != 2) return usage();
  if (const long t = args.get_long("threads", 0); t > 0) {
    common::set_num_threads(static_cast<std::size_t>(t));
  }
  const auto a = read_design(args.positional()[0]);
  const auto b = read_design(args.positional()[1]);
  sim::HammingOptions opts;
  opts.num_patterns = static_cast<std::size_t>(args.get_long("patterns", 100000));
  if (const auto key = args.get("key")) {
    const auto keys = attacks::find_key_inputs(b);
    if (keys.size() != key->size()) {
      std::cerr << "--key length " << key->size() << " != " << keys.size()
                << " key inputs in " << b.name() << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      opts.extra_inputs_b.emplace_back(keys[i].name, (*key)[i] == '1');
    }
  }
  std::cout << "HD = " << sim::hamming_distance_percent(a, b, opts) << "%\n";
  return 0;
}

// --- daemon client commands (MXRPC1; DESIGN.md §13) -------------------------

daemon::DaemonClient make_client(const CliArgs& args) {
  daemon::ClientOptions copts;
  copts.address = args.get_or("daemon", "");
  return daemon::DaemonClient(std::move(copts));
}

// Handles a RESULT_OK reply: prints the state, writes --report/--key-out on
// DONE. Exit 0 when the job succeeded, 2 when it FAILED/TIMEOUT/CANCELLED,
// 0 with just the state line when it is still in flight.
int render_result_reply(const CliArgs& args, const common::Json& reply) {
  const std::string state = reply.string_or("state", "?");
  std::cout << reply.string_or("job_id", "?") << ": " << state << "\n";
  if (state == "DONE") {
    std::cout << "deciphered key = " << reply.string_or("key", "") << "\n";
    if (const auto key_out = args.get("key-out")) {
      write_text(*key_out, reply.string_or("key", "") + "\n");
    }
    if (const common::Json* manifest = reply.find("manifest")) {
      if (const auto report = args.get("report")) {
        write_text(*report, manifest->dump_pretty() + "\n");
        std::cout << "wrote " << *report << "\n";
      } else if (const auto* results = manifest->find("results")) {
        for (const auto& [name, value] : results->members()) {
          std::cout << "  " << name << " = " << value.dump() << "\n";
        }
      }
    }
    return 0;
  }
  if (const auto* err = reply.find("error"); err && err->is_string()) {
    std::cout << "error: " << err->as_string() << "\n";
  }
  return state == "QUEUED" || state == "RUNNING" ? 0 : 2;
}

int cmd_submit(const CliArgs& args) {
  args.allow_only({"attack", "hops", "th", "epochs", "lr", "links", "seed", "scheme",
                   "truth-key", "orig", "patterns", "zoo", "zoo-dir", "no-score-cache",
                   "timeout", "daemon", "wait", "report", "key-out"});
  if (args.positional().size() != 1) return usage();
  const std::string attack_name = args.get_or("attack", "muxlink");
  core::AttackJobSpec spec = spec_from_args(args, attack_name);
  spec.timeout_seconds = args.get_double("timeout", 0.0);
  auto client = make_client(args);
  const std::string job_id = client.submit(spec);
  std::cout << "submitted " << job_id << " (" << spec.attack << " on " << spec.circuit << ") to "
            << client.address() << "\n";
  if (!args.has("wait")) return 0;
  return render_result_reply(args, client.wait_for_result(job_id));
}

int cmd_status(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const auto reply = client.status(args.positional()[0]);
  std::cout << reply.string_or("job_id", "?") << ": " << reply.string_or("state", "?");
  if (const auto* pos = reply.find("queue_position")) {
    std::cout << " (queue position " << pos->as_int() << ")";
  }
  if (const auto* wall = reply.find("wall_seconds")) {
    std::cout << " (" << wall->as_double() << "s)";
  }
  if (const auto* err = reply.find("error"); err && err->is_string()) {
    std::cout << " — " << err->as_string();
  }
  std::cout << "\n";
  return 0;
}

int cmd_result(const CliArgs& args) {
  args.allow_only({"daemon", "wait", "report", "key-out"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const std::string& job_id = args.positional()[0];
  const auto reply = args.has("wait") ? client.wait_for_result(job_id) : client.result(job_id);
  return render_result_reply(args, reply);
}

int cmd_cancel(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  auto client = make_client(args);
  const auto reply = client.cancel(args.positional()[0]);
  std::cout << reply.string_or("job_id", "?") << ": " << reply.string_or("state", "?") << "\n";
  return 0;
}

int cmd_daemon(const CliArgs& args) {
  args.allow_only({"daemon"});
  if (args.positional().size() != 1) return usage();
  const std::string& verb = args.positional()[0];
  auto client = make_client(args);
  if (verb == "stats") {
    std::cout << client.stats().dump_pretty() << "\n";
    return 0;
  }
  if (verb == "shutdown") {
    client.shutdown();
    std::cout << client.address() << " is draining\n";
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const CliArgs args(argc - 2, argv + 2);
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "lock") return cmd_lock(args);
    if (cmd == "attack") return cmd_attack(args);
    if (cmd == "untangle") return cmd_untangle(args);
    if (cmd == "campaign") return cmd_campaign(args);
    if (cmd == "zoo") return cmd_zoo(args);
    if (cmd == "saam") return cmd_simple_attack(args, true);
    if (cmd == "scope") return cmd_simple_attack(args, false);
    if (cmd == "hd") return cmd_hd(args);
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "status") return cmd_status(args);
    if (cmd == "result") return cmd_result(args);
    if (cmd == "cancel") return cmd_cancel(args);
    if (cmd == "daemon") return cmd_daemon(args);
    return usage();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const daemon::ProtocolError& e) {
    std::cerr << "protocol error: " << e.what() << "\n";
    return 6;
  } catch (const daemon::DaemonError& e) {
    std::cerr << "daemon error: " << e.what() << "\n";
    return 6;
  } catch (const gnn::ModelFormatError& e) {
    std::cerr << "model format error: " << e.what() << "\n";
    return 4;
  } catch (const zoo::ZooError& e) {  // zoo blobs are model files too
    std::cerr << "model format error: " << e.what() << "\n";
    return 4;
  } catch (const gnn::CheckpointError& e) {
    std::cerr << "checkpoint error: " << e.what() << "\n";
    return 5;
  } catch (const netlist::NetlistError& e) {  // BENCH/Verilog parse included
    std::cerr << "input error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
