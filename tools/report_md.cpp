// report_md — renders muxlink.run/v1 manifests as Markdown tables.
//
//   report_md <run1.json> [run2.json ...] [--out table.md]
//   report_md --campaign <campaign.json> [--out table.md]
//   report_md --check <run1.json> [run2.json ...]
//
// Default mode picks each manifest's table from its `tool` field. Attack
// runs (`muxlink attack --report`) share the paper-style reproduction
// table used by EXPERIMENTS.md: one row per run with AC/PC/KPA/HD where the
// run measured them, plus the training stats every attack run records.
// Perf-tracker runs (tool `bench_<leg>`, written by `muxlink-bench <leg>`)
// get one table per tool: a row per stage (seconds) and per result, a
// column per run. --campaign renders a `muxlink campaign` aggregate
// manifest as the defense x attack resilience matrix: one row per cell,
// with a verdict derived from KPA against the 50% +/- 12 chance band (the
// band the ANT/RNT protocol uses). --check validates the manifests (schema
// tag, provenance fields, stage/result sanity) and prints one OK/FAIL line
// per file; exit 1 if any file fails.
//
// Exit code 0 on success, 1 on validation failure or CLI misuse, 2 on
// processing errors (unreadable file, malformed JSON).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/run_manifest.h"
#include "tools/cli_args.h"

namespace {

using muxlink::common::Json;
using muxlink::common::RunManifest;

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double result_or_nan(const RunManifest& m, const std::string& name) {
  for (const auto& [k, v] : m.results) {
    if (k == name) return v;
  }
  return std::nan("");
}

double stage_or_nan(const RunManifest& m, const std::string& name) {
  for (const auto& [k, v] : m.stages) {
    if (k == name) return v;
  }
  return std::nan("");
}

// "12.50" / "0.703" style cell, or "—" for a metric the run did not measure.
std::string cell(double v, int decimals = 2) {
  if (std::isnan(v)) return "—";
  std::ostringstream ss;
  ss.setf(std::ios::fixed);
  ss.precision(decimals);
  ss << v;
  return ss.str();
}

int check_manifest(const std::string& path, const Json& j) {
  std::vector<std::string> errors;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  require(j.string_or("schema", "") == "muxlink.run/v1", "schema != muxlink.run/v1");
  require(!j.string_or("tool", "").empty(), "missing tool");
  require(!j.string_or("git_sha", "").empty(), "missing git_sha");
  require(j.number_or("threads", 0.0) >= 1.0, "threads < 1");
  require(j.contains("seed"), "missing seed");
  require(!j.string_or("circuit", "").empty(), "missing circuit");
  require(j.contains("stages") && j.at("stages").is_object(), "missing stages object");
  require(j.contains("results") && j.at("results").is_object(), "missing results object");
  if (j.contains("stages") && j.at("stages").is_object()) {
    for (const auto& [name, v] : j.at("stages").members()) {
      require(v.is_number() && v.as_double() >= 0.0, "stage '" + name + "' not a time");
    }
  }
  if (j.contains("results") && j.at("results").is_object()) {
    for (const auto& [name, v] : j.at("results").members()) {
      require(v.is_number() && std::isfinite(v.as_double()), "result '" + name + "' not finite");
      if (name.ends_with("_percent") && v.is_number()) {
        const double p = v.as_double();
        require(p >= 0.0 && p <= 100.0, "result '" + name + "' outside [0,100]");
      }
    }
  }
  if (errors.empty()) {
    std::cout << "OK   " << path << "\n";
    return 0;
  }
  std::cout << "FAIL " << path << ":";
  for (const auto& e : errors) std::cout << " " << e << ";";
  std::cout << "\n";
  return 1;
}

std::string render_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Circuit | Scheme | K | AC % | PC % | KPA % | HD % | Val acc | Total s |\n";
  md << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const RunManifest& m : runs) {
    md << "| " << m.circuit << " | " << (m.scheme.empty() ? "—" : m.scheme) << " | ";
    if (m.key_bits >= 0) {
      md << m.key_bits;
    } else {
      md << "—";
    }
    md << " | " << cell(result_or_nan(m, "accuracy_percent"))
       << " | " << cell(result_or_nan(m, "precision_percent"))
       << " | " << cell(result_or_nan(m, "kpa_percent"))
       << " | " << cell(result_or_nan(m, "hd_percent"))
       << " | " << cell(result_or_nan(m, "best_val_accuracy"), 3)
       << " | " << cell(stage_or_nan(m, "total"), 2) << " |\n";
  }
  return md.str();
}

// Perf-tracker tables: one per `bench_<leg>` tool, in first-seen order. Rows
// are the union of the runs' stage and result keys (stages in seconds),
// columns are the runs; "—" marks a key a run did not record.
std::string render_bench_tables(const std::vector<RunManifest>& runs) {
  std::vector<std::string> tools;
  for (const RunManifest& m : runs) {
    if (std::find(tools.begin(), tools.end(), m.tool) == tools.end()) tools.push_back(m.tool);
  }
  const auto add_keys = [](std::vector<std::string>& keys,
                           const std::vector<std::pair<std::string, double>>& kv) {
    for (const auto& [k, v] : kv) {
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
    }
  };
  std::ostringstream md;
  for (const std::string& tool : tools) {
    std::vector<const RunManifest*> cols;
    std::vector<std::string> stages, results;
    for (const RunManifest& m : runs) {
      if (m.tool != tool) continue;
      cols.push_back(&m);
      add_keys(stages, m.stages);
      add_keys(results, m.results);
    }
    if (md.tellp() > 0) md << "\n";
    md << "| `" << tool << "` |";
    for (const RunManifest* m : cols) {
      md << " " << m->circuit;
      if (m->key_bits >= 0) md << " K=" << m->key_bits;
      md << " |";
    }
    md << "\n|---|";
    for (std::size_t i = 0; i < cols.size(); ++i) md << "---:|";
    md << "\n";
    auto row = [&](const std::string& label, const std::string& key, auto lookup) {
      md << "| " << label << " |";
      for (const RunManifest* m : cols) {
        const double v = lookup(*m, key);
        const double mag = std::abs(v);
        const int decimals = v == std::floor(v) ? 0 : mag >= 100.0 ? 1 : mag >= 1.0 ? 3 : 4;
        md << " " << cell(v, decimals) << " |";
      }
      md << "\n";
    };
    for (const std::string& k : stages) row("`" + k + "` s", k, stage_or_nan);
    for (const std::string& k : results) row("`" + k + "`", k, result_or_nan);
  }
  return md.str();
}

// Defense x attack resilience matrix for `muxlink campaign` aggregate
// manifests. The verdict compares KPA against the 50% +/- 12 chance band:
// above it the attack reads the key (vulnerable), inside it the defense
// holds (resilient), below it the defense actively misleads the attack
// (deceptive — worse than guessing).
std::string render_campaign_table(const std::vector<RunManifest>& runs) {
  std::ostringstream md;
  md << "| Scheme | Circuit | Attack | K | AC % | PC % | KPA % | HD % | Verdict |\n";
  md << "|---|---|---|---:|---:|---:|---:|---:|---|\n";
  for (const RunManifest& m : runs) {
    if (!m.extra.is_object() || !m.extra.contains("cells")) {
      throw std::runtime_error("manifest has no extra.cells — not a campaign aggregate");
    }
    const Json& cells = m.extra.at("cells");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Json& c = cells.at(i);
      const double kpa = c.number_or("kpa_percent", std::nan(""));
      std::string verdict = "—";
      if (!std::isnan(kpa)) {
        if (kpa >= 62.0) {
          verdict = "vulnerable";
        } else if (kpa <= 38.0) {
          verdict = "deceptive";
        } else {
          verdict = "resilient";
        }
      }
      md << "| " << c.string_or("scheme", "—") << " | " << c.string_or("circuit", "—") << " | "
         << c.string_or("attack", "—") << " | "
         << cell(c.number_or("key_bits", std::nan("")), 0) << " | "
         << cell(c.number_or("accuracy_percent", std::nan(""))) << " | "
         << cell(c.number_or("precision_percent", std::nan(""))) << " | " << cell(kpa) << " | "
         << cell(c.number_or("hd_percent", std::nan(""))) << " | " << verdict << " |\n";
    }
  }
  return md.str();
}

}  // namespace

int main(int argc, char** argv) {
  const muxlink::tools::CliArgs args(argc - 1, argv + 1);
  try {
    args.allow_only({"out", "check", "campaign"});
    std::vector<std::string> paths = args.positional();
    // The parser binds "--check run.json" as the flag's value; that token
    // is really the first manifest path.
    if (const auto v = args.get("check"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (const auto v = args.get("campaign"); v && !v->empty()) paths.insert(paths.begin(), *v);
    if (paths.empty()) {
      std::cerr << "usage: report_md <run.json>... [--out F]  |  report_md --check <run.json>...\n"
                   "       report_md --campaign <campaign.json>... [--out F]\n";
      return 1;
    }
    if (args.has("check")) {
      int rc = 0;
      for (const std::string& path : paths) {
        rc |= check_manifest(path, Json::parse(read_file(path)));
      }
      return rc;
    }
    std::vector<RunManifest> runs;
    for (const std::string& path : paths) {
      runs.push_back(RunManifest::from_json(Json::parse(read_file(path))));
    }
    std::stable_sort(runs.begin(), runs.end(), [](const RunManifest& a, const RunManifest& b) {
      if (a.circuit != b.circuit) return a.circuit < b.circuit;
      if (a.scheme != b.scheme) return a.scheme < b.scheme;
      return a.key_bits < b.key_bits;
    });
    std::string md;
    if (args.has("campaign")) {
      md = render_campaign_table(runs);
    } else {
      std::vector<RunManifest> attacks, benches;
      for (RunManifest& m : runs) {
        (m.tool.starts_with("bench_") ? benches : attacks).push_back(std::move(m));
      }
      if (!attacks.empty()) md = render_table(attacks);
      if (!attacks.empty() && !benches.empty()) md += "\n";
      if (!benches.empty()) md += render_bench_tables(benches);
    }
    if (const auto out = args.get("out")) {
      std::ofstream os(*out);
      if (!os) throw std::runtime_error("cannot write '" + *out + "'");
      os << md;
    } else {
      std::cout << md;
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
