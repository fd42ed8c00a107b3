// Tests for the common thread pool: full index coverage, deterministic
// chunking, exception propagation, nested parallel_for (shares the pool, no
// deadlock), and a many-task stress loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace muxlink::common {
namespace {

// Records which threads ran chunks. arrive_and_wait() blocks its chunk until
// `want` distinct threads have arrived or a shared deadline passes, so a
// loop that could spread across the pool does so even on a 1-core host,
// while a loop stuck on one thread fails after the timeout instead of
// hanging.
class ThreadLatch {
 public:
  void arrive_and_wait(std::size_t want) {
    std::unique_lock<std::mutex> lock(m_);
    ids_.insert(std::this_thread::get_id());
    cv_.notify_all();
    cv_.wait_until(lock, deadline_, [&] { return ids_.size() >= want; });
  }

  std::set<std::thread::id> ids() {
    std::lock_guard<std::mutex> lock(m_);
    return ids_;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::set<std::thread::id> ids_;  // guarded by m_
  const std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
};

TEST(ThreadPool, SetNumThreadsIsReflected) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(0);  // restore default
  EXPECT_GE(num_threads(), 1u);
}

TEST(ThreadPool, NumChunksFormula) {
  EXPECT_EQ(num_chunks(0, 4), 0u);
  EXPECT_EQ(num_chunks(1, 4), 1u);
  EXPECT_EQ(num_chunks(4, 4), 1u);
  EXPECT_EQ(num_chunks(5, 4), 2u);
  EXPECT_EQ(num_chunks(100, 7), 15u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel_for(n, 7, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
  set_num_threads(0);
}

TEST(ThreadPool, ChunkingIsIndependentOfThreadCount) {
  // The (begin, end, chunk) triples must be a function of (n, chunk) only.
  auto collect = [](std::size_t threads) {
    set_num_threads(threads);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(num_chunks(103, 10));
    parallel_for(103, 10, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
      ranges[chunk] = {begin, end};
    });
    return ranges;
  };
  const auto one = collect(1);
  const auto two = collect(2);
  const auto eight = collect(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.front(), (std::pair<std::size_t, std::size_t>{0, 10}));
  EXPECT_EQ(one.back(), (std::pair<std::size_t, std::size_t>{100, 103}));
  set_num_threads(0);
}

TEST(ThreadPool, ExceptionsPropagateAndPoolSurvives) {
  set_num_threads(4);
  EXPECT_THROW(parallel_for(100, 1,
                            [&](std::size_t begin, std::size_t, std::size_t) {
                              if (begin == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must still be usable after a failed loop.
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 1, [&](std::size_t begin, std::size_t, std::size_t) { sum += begin; });
  EXPECT_EQ(sum.load(), 4950u);
  set_num_threads(0);
}

TEST(ThreadPool, NestedInsideSingleChunkCallSharesPool) {
  // The engine trains a one-member ensemble inside parallel_for(1, 1, ...);
  // the trainer's loops under it must still reach the other workers.
  set_num_threads(4);
  ThreadLatch latch;
  parallel_for(1, 1, [&](std::size_t, std::size_t, std::size_t) {
    parallel_for(8, 1, [&](std::size_t, std::size_t, std::size_t) { latch.arrive_and_wait(2); });
  });
  EXPECT_GT(latch.ids().size(), 1u);
  set_num_threads(0);
}

TEST(ThreadPool, NestedInsideMultiChunkCallReachesIdleWorkers) {
  // Chunk 0 runs a nested loop while chunk 1 is trivial, so every other
  // worker goes idle; the nested loop must reach one of them (a campaign's
  // last cell training while the sweep's tail leaves workers free).
  set_num_threads(4);
  ThreadLatch latch;
  std::thread::id outer_owner;
  parallel_for(2, 1, [&](std::size_t begin, std::size_t, std::size_t) {
    if (begin != 0) return;
    outer_owner = std::this_thread::get_id();
    parallel_for(8, 1, [&](std::size_t, std::size_t, std::size_t) { latch.arrive_and_wait(2); });
  });
  std::set<std::thread::id> ids = latch.ids();
  ids.erase(outer_owner);
  EXPECT_FALSE(ids.empty()) << "nested chunks ran only on the outer chunk's thread";
  set_num_threads(0);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  set_num_threads(4);
  for (int round = 0; round < 200; ++round) {
    // Two levels, results reduced per outer chunk.
    std::vector<std::uint64_t> outer_sums(8, 0);
    parallel_for(8, 1, [&](std::size_t begin, std::size_t, std::size_t) {
      std::vector<std::uint64_t> inner(100, 0);
      parallel_for(100, 3, [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) inner[i] = i;
      });
      outer_sums[begin] = std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
    });
    for (std::uint64_t s : outer_sums) ASSERT_EQ(s, 4950u) << "round " << round;

    // Three levels whose outer loops saturate every worker, so each one
    // blocks as a nested caller while its helpers may still be queued.
    std::atomic<std::size_t> leaves{0};
    parallel_for(4, 1, [&](std::size_t, std::size_t, std::size_t) {
      parallel_for(4, 1, [&](std::size_t, std::size_t, std::size_t) {
        parallel_for(16, 1, [&](std::size_t, std::size_t, std::size_t) { leaves.fetch_add(1); });
      });
    });
    ASSERT_EQ(leaves.load(), 256u) << "round " << round;

    // An exception from a nested chunk reaches the outermost caller.
    EXPECT_THROW(parallel_for(4, 1,
                              [&](std::size_t begin, std::size_t, std::size_t) {
                                parallel_for(8, 1, [&](std::size_t b, std::size_t, std::size_t) {
                                  if (begin == 2 && b == 5) throw std::runtime_error("nested");
                                });
                              }),
                 std::runtime_error);
  }
  set_num_threads(0);
}

TEST(ThreadPool, StressManyConsecutiveLoops) {
  set_num_threads(8);
  std::uint64_t expected = 0;
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round % 97);
    expected += n;
    parallel_for(n, 2, [&](std::size_t begin, std::size_t end, std::size_t) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), expected);
  set_num_threads(0);
}

}  // namespace
}  // namespace muxlink::common
