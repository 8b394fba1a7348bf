// Fixed-size worker pool (the HTTP server's workers). The design goal is
// deterministic fork/join parallelism — run(jobs, fn) executes fn(0..jobs-1)
// exactly once each and blocks until all finish — NOT a general task queue.
// Callers own the determinism argument: jobs must not depend on execution
// order. A woken worker tends to start on the caller's CPU, so short jobs
// mostly run on the caller itself (DESIGN §7).
//
// The calling thread participates in the work, so ThreadPool{n} gives n-way
// parallelism with n-1 spawned threads; ThreadPool{1} spawns nothing and
// run() degenerates to an inline loop.
//
// Threading contract: run() must not be called concurrently or re-entrantly
// (no nested run() from inside a job).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blameit::util {

class ThreadPool {
 public:
  /// `threads` is the total parallelism (including the calling thread);
  /// 0 means one thread per hardware core.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism of run(): spawned workers + the calling thread.
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs fn(j) for every j in [0, jobs), distributing jobs across the pool
  /// via an atomic claim counter; blocks until all jobs completed. The first
  /// exception thrown by any job is rethrown here (remaining jobs still
  /// run — jobs are expected not to throw in practice).
  void run(int jobs, const std::function<void(int)>& fn);

  /// Resolves the `0 = auto` convention: hardware concurrency, at least 1.
  [[nodiscard]] static int resolve_threads(int requested) noexcept;

 private:
  void worker_loop();
  void claim_jobs(const std::function<void(int)>& fn, int jobs);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* fn_ = nullptr;  // valid for one generation
  int jobs_ = 0;
  std::atomic<int> next_job_{0};
  int active_ = 0;              ///< workers still inside the current generation
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace blameit::util
