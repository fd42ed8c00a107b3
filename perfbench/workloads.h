// The benchmark's three workloads. Each one sets itself up from the workload
// seed, runs its closed loop for the requested wall time, checks every
// output against its gate, and fills a WorkloadResult. With tracing on it
// also opens spans around its calls into the library and derives the
// per-layer metrics from them (README.md lists which layer each one covers).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::filesystem::path work_dir;  // scratch space inside the checkout
  SpanLog* spans = nullptr;        // non-null only in the traced run

  bool tracing() const { return spans != nullptr; }
  std::uint64_t new_request() const { return ++requests_; }
  // Traced runs alternate whole cycles of operations between untraced and
  // traced, so both halves see the same mix; the gap is the tracing overhead.
  bool traced_op(std::size_t op, std::size_t cycle) const {
    return tracing() && (op / cycle) % 2 == 1;
  }

 private:
  mutable std::atomic<std::uint64_t> requests_{0};
};

struct WorkloadResult {
  std::vector<double> setup_s;        // one entry per set-up repeat
  std::vector<double> op_ms;          // untraced operations: latency each
  std::vector<double> traced_op_ms;   // traced operations (traced run only)
  std::size_t ops_completed = 0;      // all operations completed in the loop
  double loop_s = 0.0;                // wall time of the measured loop
  double loop_cpu_s = 0.0;            // process CPU time over the same loop
  double kpa_pct = 0.0;               // mean key-prediction accuracy
  std::size_t kpa_n = 0;              // attacks or cells behind kpa_pct
  Tally tally;                        // every operation and gate outcome
  std::map<std::string, double> layers;  // per-layer metrics (traced run)
  std::vector<std::string> errors;    // gate failures, for the log
};

void run_cold_attack(const RunContext& ctx, WorkloadResult& out);
void run_warm_serve(const RunContext& ctx, WorkloadResult& out);
void run_campaign_sweep(const RunContext& ctx, WorkloadResult& out);

}  // namespace perfbench
