// Unit tests of the single-job-slot pool: coverage, grain partitioning,
// nesting, exception propagation, reconfiguration, workers joining a job,
// contended callers running inline, job lifetime under concurrent
// callers, and QSNC_THREADS parsing.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace qsnc::util {
namespace {

// Spins (yielding) until pred() holds or 5 s pass; returns pred(). Lets a
// concurrency test fail on a bug instead of hanging.
template <typename Pred>
bool wait_for(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// Restores the global pool size after each test so thread-count choices
// cannot leak into other tests in this binary.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = num_threads(); }
  void TearDown() override { set_num_threads(original_); }
  int original_ = 1;
};

TEST_F(ThreadPoolTest, ZeroLengthRangeNeverInvokes) {
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  parallel_for(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  parallel_for(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  set_num_threads(8);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  parallel_for(0, kN, 64, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ThreadPoolTest, ChunkBoundariesFollowGrainNotThreadCount) {
  // Same range, same grain, different pool sizes: identical chunk set.
  auto chunks_at = [&](int threads) {
    set_num_threads(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    parallel_for(3, 103, 10, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lk(mu);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  const auto at2 = chunks_at(2);
  const auto at8 = chunks_at(8);
  EXPECT_EQ(at2, at8);
  EXPECT_EQ(at2.size(), 10u);
  EXPECT_TRUE(at2.count({3, 13}) == 1);
  EXPECT_TRUE(at2.count({93, 103}) == 1);
}

TEST_F(ThreadPoolTest, SerialPoolRunsInlineAsOneChunk) {
  set_num_threads(1);
  std::vector<std::pair<int64_t, int64_t>> calls;
  parallel_for(0, 100, 10, [&](int64_t b, int64_t e) {
    calls.emplace_back(b, e);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<int64_t, int64_t>{0, 100}));
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInlineAndCompletes) {
  set_num_threads(4);
  std::atomic<int64_t> total{0};
  parallel_for(0, 16, 1, [&](int64_t b, int64_t e) {
    EXPECT_FALSE(b == e);
    // Inner call from inside a distributed task must execute inline
    // (single chunk, same thread) instead of re-entering the pool.
    for (int64_t i = b; i < e; ++i) {
      std::atomic<int> inner_calls{0};
      int64_t inner_sum = 0;
      parallel_for(0, 100, 10, [&](int64_t ib, int64_t ie) {
        ++inner_calls;
        for (int64_t j = ib; j < ie; ++j) inner_sum += j;
      });
      if (in_parallel_region()) {
        EXPECT_EQ(inner_calls.load(), 1);
      }
      EXPECT_EQ(inner_sum, 4950);
      total += inner_sum;
    }
  });
  EXPECT_EQ(total.load(), 16 * 4950);
}

TEST_F(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  set_num_threads(4);
  EXPECT_THROW(
      parallel_for(0, 64, 1,
                   [&](int64_t b, int64_t) {
                     if (b == 33) throw std::runtime_error("chunk 33");
                   }),
      std::runtime_error);
  // The pool must stay serviceable after a failed job.
  std::atomic<int64_t> sum{0};
  parallel_for(0, 1000, 10, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 499500);
}

TEST_F(ThreadPoolTest, SetThreadsReconfigures) {
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2);
  set_num_threads(8);
  EXPECT_EQ(num_threads(), 8);
  set_num_threads(0);  // clamped
  EXPECT_EQ(num_threads(), 1);
}

TEST_F(ThreadPoolTest, ManySmallJobsDrainCleanly) {
  set_num_threads(8);
  for (int iter = 0; iter < 200; ++iter) {
    std::atomic<int64_t> sum{0};
    parallel_for(0, 64, 4, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) sum += i;
    });
    ASSERT_EQ(sum.load(), 2016);
  }
}

// Job lifetime: each parallel_for keeps its job on the caller's stack, and
// a worker retiring the last chunk must be done with the job before the
// caller can return. Thousands of tiny jobs from concurrent callers, with
// chunks of equal length so the caller and a worker tend to finish
// together, make the window between "last chunk retired" and "caller
// returns" as hot as possible; a worker that touches the job after that
// point is a stack-use-after-return (ASan) or a race on a dead mutex
// (TSan), and in plain builds tends to abort or hang inside the mutex.
TEST_F(ThreadPoolTest, ConcurrentCallersNeverOutliveTheirJobs) {
  set_num_threads(4);
  constexpr int kCallers = 4;
  constexpr int kJobsPerCaller = 2000;
  std::atomic<int> wrong_sums{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int j = 0; j < kJobsPerCaller; ++j) {
        std::atomic<int64_t> sum{0};
        parallel_for(0, 8, 1, [&](int64_t b, int64_t e) {
          volatile int64_t spin = 0;
          for (int k = 0; k < 1000; ++k) spin = spin + k;
          for (int64_t i = b; i < e; ++i) sum += i;
        });
        if (sum.load() != 28) ++wrong_sums;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong_sums.load(), 0);
}

// Each chunk blocks until all four have started, so the job completes
// only if the caller and three workers each hold one chunk at once.
TEST_F(ThreadPoolTest, WorkersRunChunksConcurrently) {
  set_num_threads(4);
  std::atomic<int> arrived{0};
  std::atomic<int> timed_out{0};
  parallel_for(0, 4, 1, [&](int64_t, int64_t) {
    ++arrived;
    if (!wait_for([&] { return arrived.load() == 4; })) ++timed_out;
  });
  EXPECT_EQ(arrived.load(), 4);
  EXPECT_EQ(timed_out.load(), 0);
}

// While caller A's job holds the pool, caller B's parallel_for runs its
// whole range as one chunk on B's own thread.
TEST_F(ThreadPoolTest, ContendedCallerRunsInline) {
  set_num_threads(4);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread a([&] {
    parallel_for(0, 4, 1, [&](int64_t b, int64_t) {
      if (b != 0) return;
      held = true;
      wait_for([&] { return release.load(); });
    });
  });
  const bool a_holds_pool = wait_for([&] { return held.load(); });
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> calls;
  std::vector<std::thread::id> ids;
  if (a_holds_pool) {
    parallel_for(0, 100, 10, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lk(mu);
      calls.emplace_back(b, e);
      ids.push_back(std::this_thread::get_id());
    });
  }
  release = true;
  a.join();
  ASSERT_TRUE(a_holds_pool);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<int64_t, int64_t>{0, 100}));
  EXPECT_EQ(ids[0], std::this_thread::get_id());
}

TEST_F(ThreadPoolTest, ZeroGrainIsRejected) {
  set_num_threads(4);
  auto noop = [](int64_t, int64_t) {};
  EXPECT_THROW(parallel_for(0, 100, 0, noop), std::invalid_argument);
  EXPECT_THROW(parallel_for(0, 100, -1, noop), std::invalid_argument);
}

TEST_F(ThreadPoolTest, DefaultThreadsHonorsEnvFormat) {
  const char* saved = std::getenv("QSNC_THREADS");
  const std::optional<std::string> original =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw == 0 ? 1 : static_cast<int>(hw_raw);
  const std::vector<std::pair<const char*, int>> cases = {
      {"3", 3}, {"9999", 512}, {"0", hw}, {"abc", hw}, {"4x", hw}};
  for (const auto& [value, expected] : cases) {
    setenv("QSNC_THREADS", value, 1);
    EXPECT_EQ(default_threads(), expected) << "QSNC_THREADS=" << value;
  }
  unsetenv("QSNC_THREADS");
  EXPECT_EQ(default_threads(), hw);
  if (original) {
    setenv("QSNC_THREADS", original->c_str(), 1);
  }
}

}  // namespace
}  // namespace qsnc::util
