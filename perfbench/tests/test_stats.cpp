// Unit tests of muxbench's measurement helpers (harness.h).
#include <gtest/gtest.h>

#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

Span span(std::uint64_t id, std::uint64_t parent, double start, double end,
          const char* name = "s") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = start;
  s.end = end;
  return s;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailQuantile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 99; ++i) v.push_back(i);
  // rank ceil(0.9 * 99) = 90 leaves 9 samples beyond: not reportable.
  EXPECT_FALSE(tail_quantile(v, 0.9).has_value());
  v.push_back(100);
  // rank 90 of 100 leaves exactly 10 beyond.
  const auto p90 = tail_quantile(v, 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
}

TEST(TailQuantile, NearestRankOnUnsortedInput) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(*tail_quantile(v, 0.9), 180.0);
  EXPECT_DOUBLE_EQ(*tail_quantile(v, 0.5), 100.0);
  EXPECT_DOUBLE_EQ(*tail_quantile({5.0, 1.0}, 0.5, 0), 1.0);
  EXPECT_FALSE(tail_quantile({}, 0.9, 0).has_value());
}

TEST(Tally, EveryNonOkOutcomeCountsAsFailed) {
  Tally t;
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.0);
  for (int i = 0; i < 6; ++i) t.add(Outcome::kOk);
  t.add(Outcome::kFailed);
  t.add(Outcome::kRefused);
  t.add(Outcome::kTimedOut);
  t.add(Outcome::kMismatch);
  EXPECT_EQ(t.attempted(), 10u);
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.4);
}

TEST(Tally, MergeAddsEveryCount) {
  Tally a, b;
  a.add(Outcome::kOk);
  b.add(Outcome::kOk);
  b.add(Outcome::kMismatch);
  a.merge(b);
  EXPECT_EQ(a.attempted(), 3u);
  EXPECT_EQ(a.failed(), 1u);
  EXPECT_EQ(b.attempted(), 2u);
}

TEST(Tally, ConcurrentAddsAreAllCounted) {
  Tally t;
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&t, c] {
      for (int i = 0; i < 1000; ++i) {
        t.add(c == 0 && i % 10 == 0 ? Outcome::kRefused : Outcome::kOk);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.attempted(), 4000u);
  EXPECT_EQ(t.failed(), 100u);
}

TEST(SelfTime, DurationMinusChildCoverage) {
  const Span root = span(1, 0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(self_seconds(root, {}), 10.0);
  // Disjoint children: 2 + 3 covered.
  EXPECT_DOUBLE_EQ(self_seconds(root, {span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 8.0)}), 5.0);
  // Overlapping (concurrent) children cover their union once: [1, 6].
  EXPECT_DOUBLE_EQ(self_seconds(root, {span(2, 1, 1.0, 4.0), span(3, 1, 2.0, 6.0)}), 5.0);
  // Nested and touching intervals merge too: [1, 7].
  EXPECT_DOUBLE_EQ(
      self_seconds(root, {span(2, 1, 1.0, 4.0), span(3, 1, 2.0, 3.0), span(4, 1, 4.0, 7.0)}),
      4.0);
  // A child running past its parent only counts inside the parent.
  EXPECT_DOUBLE_EQ(self_seconds(root, {span(2, 1, 8.0, 12.0)}), 8.0);
}

TEST(SelfTime, SummaryUsesDirectChildrenOnly) {
  const std::vector<Span> spans = {span(1, 0, 0.0, 10.0, "job"), span(2, 1, 1.0, 9.0, "call"),
                                   span(3, 2, 2.0, 8.0, "inner"), span(4, 0, 20.0, 22.0, "job")};
  const auto sum = summarize_spans(spans);
  EXPECT_EQ(sum.at("job").count, 2u);
  EXPECT_DOUBLE_EQ(sum.at("job").total_seconds, 12.0);
  EXPECT_DOUBLE_EQ(sum.at("job").self_seconds, 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(sum.at("call").self_seconds, 2.0);
  EXPECT_DOUBLE_EQ(sum.at("inner").self_seconds, 6.0);
}

TEST(ScopedSpan, NestsAndInheritsRequest) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 7);
    { ScopedSpan inner(&log, "inner"); }
  }
  { ScopedSpan none(nullptr, "ignored"); }
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, 7u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_LE(inner.end, outer.end);
}

}  // namespace
}  // namespace perfbench
