// Unit tests for common/thread_pool: ParallelForRange coverage and chunk
// boundaries, the inline one-thread pool, back-to-back and concurrent
// calls on one pool, and the return-after-every-runner guarantee.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace tcdp {
namespace {

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ParallelForRangeCoversRangeInDisjointSlices) {
  // grain 100 and grain 1 (one slice per index), at an offset range.
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{100}, std::size_t{1}}) {
    constexpr std::size_t kBegin = 100, kEnd = 4196;
    std::vector<std::atomic<int>> touched(kEnd);
    std::atomic<int> slices{0};
    pool.ParallelForRange(
        kBegin, kEnd,
        [&](std::size_t lo, std::size_t hi) {
          EXPECT_LT(lo, hi);
          EXPECT_LE(hi - lo, grain);
          EXPECT_EQ((lo - kBegin) % grain, 0u);
          slices.fetch_add(1);
          for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
        },
        grain);
    for (std::size_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(touched[i].load(), i < kBegin ? 0 : 1) << "index " << i;
    }
    // ceil(4096 / grain) slices.
    EXPECT_EQ(static_cast<std::size_t>(slices.load()),
              (kEnd - kBegin + grain - 1) / grain)
        << "grain " << grain;
  }
}

TEST(ThreadPool, DefaultGrainIsAQuarterShareOfEachRunner) {
  // count / (4 * num_threads()), at least 1: the boundaries every
  // deterministic-chunking caller relies on.
  for (const std::size_t threads : {1, 2, 3, 4}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {1, 7, 100, 1001}) {
      const std::size_t grain = std::max<std::size_t>(1, count / (4 * threads));
      std::mutex mu;
      std::set<std::pair<std::size_t, std::size_t>> seen;
      pool.ParallelForRange(0, count, [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        seen.emplace(lo, hi);
      });
      std::set<std::pair<std::size_t, std::size_t>> want;
      for (std::size_t lo = 0; lo < count; lo += grain) {
        want.emplace(lo, std::min(count, lo + grain));
      }
      EXPECT_EQ(seen, want) << threads << " threads, count " << count;
    }
  }
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelForRange(9, 9, [&calls](std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelForRange(7, 8, [&calls](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 7u);
    EXPECT_EQ(hi, 8u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, OneThreadPoolRunsEveryChunkOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;  // unguarded
  pool.ParallelForRange(
      0, 10,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        chunks.emplace_back(lo, hi);
      },
      /*grain=*/3);
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {0, 3}, {3, 6}, {6, 9}, {9, 10}};
  EXPECT_EQ(chunks, want);
}

TEST(ThreadPool, BackToBackCallsCoverEachIndexOnce) {
  // A worker that wakes late for one call must never run a chunk of the
  // next call with the old body: every call checks its own counts.
  ThreadPool pool(4);
  constexpr std::size_t kMaxRange = 64;
  std::vector<std::atomic<int>> touched(kMaxRange);
  std::uint64_t state = 12345;
  for (int call = 0; call < 10000; ++call) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t count = 1 + (state >> 33) % kMaxRange;
    const std::size_t grain = (state >> 20) % 8;  // 0 = automatic
    for (std::size_t i = 0; i < count; ++i) touched[i].store(0);
    pool.ParallelForRange(
        0, count,
        [&touched](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
        },
        grain);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(touched[i].load(), 1)
          << "call " << call << ", count " << count << ", grain " << grain
          << ", index " << i;
    }
  }
}

TEST(ThreadPool, ConcurrentCallersOnOnePoolTakeTurns) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 2000;
  constexpr int kRounds = 200;
  auto caller = [&pool](std::vector<int>* sums) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::atomic<int>> touched(kN);
      pool.ParallelForRange(0, kN, [&touched](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
      });
      int sum = 0;
      for (const std::atomic<int>& t : touched) sum += t.load();
      sums->push_back(sum);
    }
  };
  std::vector<int> a, b;
  std::thread other(caller, &b);
  caller(&a);
  other.join();
  EXPECT_EQ(a, std::vector<int>(kRounds, static_cast<int>(kN)));
  EXPECT_EQ(b, std::vector<int>(kRounds, static_cast<int>(kN)));
}

TEST(ThreadPool, ReturnsOnlyAfterEveryRunnerLeftTheBody) {
  // Slow chunks write the caller's stack array after a pause; the call
  // must not return before those writes land (ThreadSanitizer also
  // reports a write racing the reads below).
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    int slots[16] = {};
    pool.ParallelForRange(
        0, 16,
        [&slots](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            if (i % 5 == 0) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            slots[i] = static_cast<int>(i) + 1;
          }
        },
        /*grain=*/1);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(slots[i], i + 1) << "round " << round << ", slot " << i;
    }
  }
}

}  // namespace
}  // namespace tcdp
