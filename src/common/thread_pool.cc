#include "common/thread_pool.h"

#include <algorithm>

namespace tcdp {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_ = true;
  lock.unlock();
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunks(const Job& job) {
  for (std::size_t chunk = next_chunk_++; chunk < job.num_chunks;
       chunk = next_chunk_++) {
    const std::size_t lo = job.begin + chunk * job.grain;
    (*job.body)(lo, std::min(job.end, lo + job.grain));
  }
}

void ThreadPool::WorkerLoop() {
  std::size_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    wake_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    // Woken after the caller returned: the slot is cleared, so a late
    // worker never claims a later job's chunks with this job's body.
    if (job_.body == nullptr) continue;
    const Job job = job_;
    ++active_;
    lock.unlock();
    RunChunks(job);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::ParallelForRange(std::size_t begin, std::size_t end,
                                  const RangeBody& body, std::size_t grain) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  if (grain == 0) {
    // A few chunks per runner, so a fast runner takes a straggler's share.
    grain = std::max<std::size_t>(1, count / (4 * num_threads()));
  }
  const Job job{&body, begin, end, grain, (count + grain - 1) / grain};
  if (workers_.empty() || job.num_chunks == 1) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      body(lo, std::min(end, lo + grain));
    }
    return;
  }
  std::lock_guard<std::mutex> call(call_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    next_chunk_ = 0;
    ++generation_;
  }
  wake_cv_.notify_all();
  RunChunks(job);
  // Every chunk is claimed; wait for the workers still running one.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  job_.body = nullptr;
}

}  // namespace tcdp
