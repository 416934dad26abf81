#ifndef GEMS_DISTRIBUTED_THREAD_POOL_H_
#define GEMS_DISTRIBUTED_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file
/// A fixed pool of worker threads shared by the multi-core subsystems: the
/// ShardedPipeline parks one long-lived drain task per shard on it during
/// ingest, then reuses the freed workers for the parallel merge tree, and
/// the engine's ProcessBatchParallel borrows it per window segment. Task
/// dispatch goes through one mutex-protected FIFO — fine for the coarse
/// tasks scheduled here (a drain loop, a merge group, a share of a window
/// segment's GROUP-BY runs), which each amortize the queue round-trip over
/// thousands of sketch updates. The per-item hot path never touches this
/// queue; it runs inside a task, on SPSC rings and private shards.

namespace gems {

/// Counts outstanding work items; Wait() blocks until the count returns to
/// zero. The usual pattern: Add(n), hand n tasks to the pool, each calls
/// Done() when finished, owner Wait()s.
class WaitGroup {
 public:
  void Add(size_t n);
  void Done();
  void Wait();

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

/// Fixed-size thread pool draining a FIFO of std::function tasks.
class ThreadPool {
 public:
  /// `num_threads` = 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers; queued tasks submitted before destruction still
  /// run to completion.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues one task; returns immediately. Tasks may block (the sharded
  /// pipeline's drain loops do, for their whole lifetime), so callers that
  /// need k concurrently-blocking tasks must size the pool >= k.
  void Submit(std::function<void()> task);

  /// Runs every task on the pool and blocks until all of them finished.
  /// Tasks must be independent of each other (they may run in any order
  /// and concurrently).
  void RunAll(std::vector<std::function<void()>> tasks);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_THREAD_POOL_H_
