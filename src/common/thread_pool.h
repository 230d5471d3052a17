#ifndef TCDP_COMMON_THREAD_POOL_H_
#define TCDP_COMMON_THREAD_POOL_H_

/// \file
/// The one fan-out primitive of the release paths: a chunk-claiming
/// parallel-for. The pool is one job slot: `ParallelForRange` publishes
/// its range and body there, and the caller and the `num_threads() - 1`
/// parked workers claim chunks with one atomic `fetch_add` each until
/// none are left. The caller counts as a runner.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcdp {

class ThreadPool {
 public:
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// Starts num_threads - 1 workers (0 threads = hardware concurrency,
  /// at least 1): ThreadPool(1) runs every body on the caller's thread.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs body(lo, hi) over [begin, end) in chunks of \p grain indices
  /// (0 = count / (4 * num_threads()), at least 1): boundaries depend
  /// only on (range, grain, num_threads), never on which thread runs a
  /// chunk. One chunk, or a one-thread pool, runs inline. Returns after
  /// every runner left \p body. Concurrent calls take turns; a call from
  /// inside a body on the same pool deadlocks.
  void ParallelForRange(std::size_t begin, std::size_t end,
                        const RangeBody& body, std::size_t grain = 0);

 private:
  struct Job {
    const RangeBody* body = nullptr;  // null: no job published
    std::size_t begin = 0, end = 0, grain = 1, num_chunks = 0;
  };

  /// Claims and runs chunks of \p job until every chunk is claimed.
  void RunChunks(const Job& job);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex call_mu_;  // one ParallelForRange on the slot at a time
  std::mutex mu_;                    // guards the fields below
  std::condition_variable wake_cv_;  // parked workers
  std::condition_variable done_cv_;  // the caller, until active_ == 0
  Job job_;
  std::size_t generation_ = 0;  // bumped per published job
  std::size_t active_ = 0;      // workers inside RunChunks
  bool stop_ = false;
  std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace tcdp

#endif  // TCDP_COMMON_THREAD_POOL_H_
