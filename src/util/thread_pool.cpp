#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

namespace amped {

namespace {

// True on threads currently executing a pool task; parallel_for uses it to
// run nested loops inline instead of queueing work behind its own task.
thread_local bool t_in_pool_worker = false;

// AMPED_THREADS as a thread count; 0 when unset or empty. Anything but a
// plain positive decimal integer throws rather than silently falling back
// to the hardware count.
std::size_t env_thread_count() {
  const char* env = std::getenv("AMPED_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const char* end = env + std::strlen(env);
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(env, end, parsed);
  if (ec != std::errc{} || ptr != end || parsed == 0) {
    throw std::invalid_argument("AMPED_THREADS=\"" + std::string(env) +
                                "\": expected a positive integer thread "
                                "count");
  }
  return parsed;
}

std::mutex& global_pool_mutex() {
  static std::mutex m;
  return m;
}

std::size_t& parallelism_override() {
  static std::size_t n = 0;
  return n;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t chunk) {
  if (n == 0) return;
  if (t_in_pool_worker || workers_.size() == 1 || n == 1) {
    // Nested call from a worker, a 1-thread pool, or a single index:
    // distributing would add queue traffic with no extra concurrency —
    // run inline.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Contiguous chunks, claimed through a per-call counter by up to size()
  // helper tasks. The caller waits for this call's chunks only, never for
  // the pool to drain: unrelated tasks (streamer read-ahead, another
  // thread's parallel_for) can delay when helpers start, not when the
  // call returns after its own chunks finish. Helpers that start after
  // the chunks ran out return without touching `fn`; the shared state
  // keeps the counters alive for them.
  struct Call {
    const std::function<void(std::size_t)>* fn;
    std::size_t n, chunks, per;
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;
    std::exception_ptr error;
  };
  auto call = std::make_shared<Call>();
  call->fn = &fn;
  call->n = n;
  const std::size_t default_chunks = std::min(n, workers_.size() * 4);
  call->per = chunk != 0 ? chunk : (n + default_chunks - 1) / default_chunks;
  call->chunks = (n + call->per - 1) / call->per;
  const std::size_t helpers = std::min(call->chunks, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([call] {
      Call& c = *call;
      for (;;) {
        const std::size_t k = c.next.fetch_add(1);
        if (k >= c.chunks) return;
        std::exception_ptr error;
        try {
          const std::size_t hi = std::min(c.n, (k + 1) * c.per);
          for (std::size_t i = k * c.per; i < hi; ++i) (*c.fn)(i);
        } catch (...) {
          error = std::current_exception();
        }
        std::lock_guard lock(c.mutex);
        if (error && !c.error) c.error = error;
        if (++c.finished == c.chunks) c.cv.notify_all();
      }
    });
  }
  std::unique_lock lock(call->mutex);
  call->cv.wait(lock, [&] { return call->finished == call->chunks; });
  if (call->error) std::rethrow_exception(call->error);
}

void ThreadPool::worker_loop() {
  t_in_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

// Caller must hold global_pool_mutex().
std::size_t resolved_parallelism_locked() {
  if (parallelism_override() > 0) return parallelism_override();
  const std::size_t env = env_thread_count();
  if (env > 0) return env;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool& global_thread_pool() {
  std::lock_guard lock(global_pool_mutex());
  auto& pool = global_pool_slot();
  if (!pool) {
    pool = std::make_unique<ThreadPool>(resolved_parallelism_locked());
  }
  return *pool;
}

std::size_t host_parallelism() {
  std::lock_guard lock(global_pool_mutex());
  return resolved_parallelism_locked();
}

void set_host_parallelism(std::size_t num_threads) {
  std::lock_guard lock(global_pool_mutex());
  parallelism_override() = num_threads;
  global_pool_slot().reset();  // rebuilt at the new size on next use
}

}  // namespace amped
