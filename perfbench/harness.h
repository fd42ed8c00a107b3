// Measurement helpers of muxbench: order statistics, operation
// outcome accounting, and an in-memory span log with self-time analysis.
// Nothing here touches the library; tests/test_stats.cpp covers all of it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for even sizes). 0 when empty.
double median(std::vector<double> v);

// Nearest-rank q-quantile (rank = ceil(q * n), 1-based), reported only when at
// least `min_beyond` samples rank above it — a p90 therefore needs n >= 100.
// nullopt otherwise.
std::optional<double> tail_quantile(std::vector<double> v, double q, std::size_t min_beyond = 10);

// Operation accounting behind `attempted`, `failed` and failed_frac: every
// outcome but kOk counts as failed.
enum class Outcome { kOk, kFailed, kRefused, kTimedOut, kMismatch };

class Tally {
 public:
  void add(Outcome o);
  void merge(const Tally& other);  // adds every count of `other`
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  double failed_frac() const;  // failed / attempted; 0 when nothing was attempted

 private:
  mutable std::mutex m_;
  std::uint64_t counts_[5] = {};
};

// One closed span: [start, end] in seconds on the steady clock. `parent` is 0
// for a root; spans of one request share `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

// Spans held in memory until the run ends. Thread-safe.
class SpanLog {
 public:
  std::uint64_t next_id();
  void add(Span s);
  std::vector<Span> spans() const;
  // One JSON object per line, in close order.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex m_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

// RAII span. With a null log it records nothing (the timed runs). Nested
// ScopedSpans on one thread parent to the innermost open one and inherit its
// request id; `request` = 0 means "inherit".
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  ScopedSpan* outer_ = nullptr;
};

// Seconds on the steady clock (the span time base).
double now_seconds();

// A span's duration minus the part of [start, end] covered by the union of
// its children's intervals (overlapping children count once).
double self_seconds(const Span& s, const std::vector<Span>& children);

struct SpanStats {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};
// Per-name totals over a span set, self time taken against each span's
// direct children.
std::map<std::string, SpanStats> summarize_spans(const std::vector<Span>& spans);

}  // namespace perfbench
