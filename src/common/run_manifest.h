// RunManifest: the machine-readable record of one pipeline run — provenance
// (git SHA, build flags), configuration (circuit, scheme, key size, seed,
// thread count), per-stage wall times, final attack metrics, and the full
// metrics/trace snapshot. Emitted by `muxlink attack --report` and
// `muxlink-bench <leg>` (tool "bench_<leg>"); consumed by tools/report_md
// (Markdown rendering + --check validation) and by EXPERIMENTS.md's
// reproduction tables.
//
// Schema (muxlink.run/v1, field order as emitted):
//   schema, tool, git_sha, build_type, build_flags, threads, seed,
//   circuit, scheme, key_bits,
//   stages        { name -> seconds },
//   results       { accuracy_percent?, precision_percent?, kpa_percent?,
//                   hd_percent?, best_val_accuracy?, training_links?,
//                   target_links?, ... free-form numbers },
//   telemetry_path (optional),
//   extra         (free-form object, tool-specific),
//   observability { counters, gauges, histograms, spans } (optional)
//
// Optional metric fields use "absent" rather than a sentinel value, so a
// manifest says exactly what a run measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"

namespace muxlink::common {

struct RunManifest {
  std::string schema = "muxlink.run/v1";
  std::string tool;
  std::string git_sha;     // defaults from build_info when built via make_run_manifest
  std::string build_type;
  std::string build_flags;
  int threads = 1;
  std::uint64_t seed = 0;
  std::string circuit;
  std::string scheme;      // "" = unknown/not applicable
  std::int64_t key_bits = -1;  // -1 = not applicable

  // Per-stage wall seconds in pipeline order.
  std::vector<std::pair<std::string, double>> stages;

  // Final numeric results (AC/PC/KPA/HD percentages, training stats, ...).
  // Only what a run measured appears; keys use _percent / _seconds suffixes.
  std::vector<std::pair<std::string, double>> results;

  std::string telemetry_path;  // "" = no telemetry stream
  Json extra;                  // tool-specific payload (object or null)
  Json observability;          // metrics + span snapshot (object or null)

  void add_stage(std::string name, double seconds) {
    stages.emplace_back(std::move(name), seconds);
  }
  void add_result(std::string name, double value) {
    results.emplace_back(std::move(name), value);
  }

  Json to_json() const;
  static RunManifest from_json(const Json& j);  // tolerant of absent fields
};

// A manifest pre-filled with build provenance (git SHA, build type/flags)
// and the current thread-pool size.
RunManifest make_run_manifest(std::string tool);

// Serializes the live MetricsRegistry state (counters, gauges, histograms,
// span tree) as the manifest's `observability` object. Returns a null Json
// when metrics are disabled or nothing was recorded.
Json observability_to_json();

// Renders a SpanNode tree as JSON (exposed for tests).
Json span_to_json(const SpanNode& node);

}  // namespace muxlink::common
