// Fixed-size thread pool with a parallel_for helper.
//
// The simulator's numerical execution is independent per simulated GPU, so
// device loops can run concurrently when cores are available. On a 1-core
// host the pool degrades gracefully to near-serial execution; all *timing*
// results come from the simulator's cost model, never from wall clock, so
// correctness of results does not depend on the core count.
//
// The process-wide pool behind global_thread_pool() is what the execution
// engine dispatches on (per-GPU shard loops, per-mode format builds). Its
// size resolves, in priority order: set_host_parallelism() override →
// AMPED_THREADS environment variable → hardware concurrency. A set but
// malformed AMPED_THREADS (not a positive integer) throws
// std::invalid_argument on first use.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace amped {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; tasks may not throw (they run under noexcept workers).
  void submit(std::function<void()> task);

  // Block until every submitted task has finished.
  void wait_idle();

  // Run fn(i) for i in [0, n), distributing across the pool, and wait for
  // exactly those calls — not for other tasks queued on the pool.
  // Rethrows the first exception fn threw, after every claimed index has
  // finished. Calling from inside a pool task runs the loop inline on the
  // calling worker. Workers claim contiguous chunks of `chunk` indices in
  // ascending order; 0 picks about four chunks per worker, and 1 gives
  // every index its own claim (iterations of very different cost: put the
  // heavy ones first).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t chunk = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// The shared pool host-parallel sections dispatch on; constructed on first
// use with host_parallelism() workers.
ThreadPool& global_thread_pool();

// Worker count the global pool will use (override → AMPED_THREADS → cores).
// A value of 1 makes every host-parallel section run serially.
std::size_t host_parallelism();

// Overrides the global pool size (0 = back to AMPED_THREADS / hardware
// default), tearing down any existing idle pool so the next use rebuilds
// at the new size. Call at startup or between runs — not concurrently with
// work executing on the pool.
void set_host_parallelism(std::size_t num_threads);

}  // namespace amped
