#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> tail_quantile(std::vector<double> v, double q, std::size_t min_beyond) {
  const std::size_t n = v.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < min_beyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

void Tally::add(Outcome o) {
  std::lock_guard<std::mutex> lock(m_);
  ++counts_[static_cast<int>(o)];
}

void Tally::merge(const Tally& other) {
  std::uint64_t counts[5];
  {
    std::lock_guard<std::mutex> lock(other.m_);
    for (int i = 0; i < 5; ++i) counts[i] = other.counts_[i];
  }
  std::lock_guard<std::mutex> lock(m_);
  for (int i = 0; i < 5; ++i) counts_[i] += counts[i];
}

std::uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> lock(m_);
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts_) n += c;
  return n;
}

std::uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> lock(m_);
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts_) n += c;
  return n - counts_[static_cast<int>(Outcome::kOk)];
}

double Tally::failed_frac() const {
  const std::uint64_t n = attempted();
  return n == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(n);
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lock(m_);
  return ++last_id_;
}

void SpanLog::add(Span s) {
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span log '" + path + "'");
  char buf[96];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf), "%.9f,\"end\":%.9f}\n", s.start, s.end);
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"name\":\"" << s.name << "\",\"start\":" << buf;
  }
}

namespace {
thread_local ScopedSpan* t_open = nullptr;
}  // namespace

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t request) : log_(log) {
  if (!log_) return;
  outer_ = t_open;
  span_.id = log_->next_id();
  span_.name = name;
  if (outer_ && outer_->log_ == log_) {
    span_.parent = outer_->span_.id;
    span_.request = request != 0 ? request : outer_->span_.request;
  } else {
    span_.request = request;
  }
  t_open = this;
  span_.start = now_seconds();
}

ScopedSpan::~ScopedSpan() {
  if (!log_) return;
  span_.end = now_seconds();
  t_open = outer_;
  log_->add(std::move(span_));
}

double self_seconds(const Span& s, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(children.size());
  for (const Span& c : children) {
    const double a = std::max(c.start, s.start);
    const double b = std::min(c.end, s.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double run_a = 0.0, run_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= run_b) {
      run_b = std::max(run_b, b);
      continue;
    }
    if (open) covered += run_b - run_a;
    run_a = a;
    run_b = b;
    open = true;
  }
  if (open) covered += run_b - run_a;
  return (s.end - s.start) - covered;
}

std::map<std::string, SpanStats> summarize_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  static const std::vector<Span> kNone;
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_seconds += s.end - s.start;
    st.self_seconds += self_seconds(s, it == children.end() ? kNone : it->second);
  }
  return out;
}

}  // namespace perfbench
