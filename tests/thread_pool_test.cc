// Tests of the shared execution layer: pool lifecycle, ParallelFor index
// coverage, deterministic partitioning, nested calls, and exception
// propagation.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace d2stgnn {
namespace {

class ThreadPoolTest : public ::testing::Test {
 protected:
  // Leave the process in the default single-threaded state so test order
  // cannot leak a thread-count change.
  void TearDown() override { SetNumThreads(1); }
};

TEST_F(ThreadPoolTest, SetAndGetNumThreads) {
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(4);
  EXPECT_EQ(GetNumThreads(), 4);
  SetNumThreads(2);
  EXPECT_EQ(GetNumThreads(), 2);
}

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    for (int64_t n : {0LL, 1LL, 7LL, 64LL, 1000LL, 4097LL}) {
      for (int64_t grain : {1LL, 3LL, 64LL, 5000LL}) {
        std::vector<std::atomic<int>> counts(static_cast<size_t>(n));
        for (auto& c : counts) c = 0;
        ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
          ASSERT_LE(lo, hi);
          for (int64_t i = lo; i < hi; ++i) {
            counts[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(counts[static_cast<size_t>(i)].load(), 1)
              << "index " << i << " n=" << n << " grain=" << grain
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(ThreadPoolTest, NonZeroBeginIsRespected) {
  SetNumThreads(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(10, 110, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), (10 + 109) * 100 / 2);
}

TEST_F(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  auto collect = [](int threads) {
    SetNumThreads(threads);
    std::mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    ParallelFor(0, 1000, 64, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto at1 = collect(1);
  const auto at4 = collect(4);
  EXPECT_EQ(at1, at4);
  ASSERT_EQ(at1.size(), 16u);  // ceil(1000 / 64)
  EXPECT_EQ(at1.front(), (std::pair<int64_t, int64_t>{0, 64}));
  EXPECT_EQ(at1.back(), (std::pair<int64_t, int64_t>{960, 1000}));
}

TEST_F(ThreadPoolTest, NestedParallelForRunsSerially) {
  SetNumThreads(4);
  std::vector<std::atomic<int>> counts(256);
  for (auto& c : counts) c = 0;
  ParallelFor(0, 16, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      EXPECT_TRUE(InParallelRegion());
      ParallelFor(0, 16, 1, [&](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) {
          counts[static_cast<size_t>(o * 16 + i)].fetch_add(1);
        }
      });
    }
  });
  EXPECT_FALSE(InParallelRegion());
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    EXPECT_THROW(
        ParallelFor(0, 1000, 10,
                    [&](int64_t lo, int64_t) {
                      if (lo == 500) throw std::runtime_error("chunk failed");
                    }),
        std::runtime_error);
    // The pool survives a throwing job and runs subsequent work.
    std::atomic<int64_t> done{0};
    ParallelFor(0, 100, 10,
                [&](int64_t lo, int64_t hi) { done.fetch_add(hi - lo); });
    EXPECT_EQ(done.load(), 100);
  }
}

// At one thread every chunk runs inline on the caller, in chunk order: a
// throw skips the remaining chunks, propagates, and leaves the region flag
// reset, and a nested call does not clear the flag of the chunk around it.
TEST_F(ThreadPoolTest, InlinePathRestoresRegionFlag) {
  SetNumThreads(1);
  std::vector<int64_t> ran;
  EXPECT_THROW(ParallelFor(0, 50, 10,
                           [&](int64_t lo, int64_t) {
                             EXPECT_TRUE(InParallelRegion());
                             ran.push_back(lo);
                             if (lo == 20) throw std::runtime_error("chunk");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran, (std::vector<int64_t>{0, 10, 20}));
  EXPECT_FALSE(InParallelRegion());

  int64_t covered = 0;
  ParallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
    ParallelFor(0, 8, 2, [&](int64_t ilo, int64_t ihi) {
      EXPECT_TRUE(InParallelRegion());
      covered += ihi - ilo;
    });
    EXPECT_TRUE(InParallelRegion());
    covered += hi - lo;
  });
  EXPECT_EQ(covered, 4 * 8 + 4);
  EXPECT_FALSE(InParallelRegion());
}

TEST_F(ThreadPoolTest, PoolSurvivesRepeatedResizing) {
  for (int round = 0; round < 3; ++round) {
    for (int threads : {1, 2, 4, 3}) {
      SetNumThreads(threads);
      std::atomic<int64_t> sum{0};
      ParallelFor(0, 500, 16,
                  [&](int64_t lo, int64_t hi) { sum.fetch_add(hi - lo); });
      ASSERT_EQ(sum.load(), 500);
    }
  }
}

TEST_F(ThreadPoolTest, DefaultGrainHandlesLargeRanges) {
  SetNumThreads(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 1 << 20, /*grain=*/0,
              [&](int64_t lo, int64_t hi) { sum.fetch_add(hi - lo); });
  EXPECT_EQ(sum.load(), 1 << 20);
}

}  // namespace
}  // namespace d2stgnn
