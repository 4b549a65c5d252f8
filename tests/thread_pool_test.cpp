#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

// Restores the default pool configuration however a test exits.
class ScopedHostParallelism {
 public:
  explicit ScopedHostParallelism(std::size_t n) { set_host_parallelism(n); }
  ~ScopedHostParallelism() { set_host_parallelism(0); }
};

TEST(ThreadPoolStressTest, ConcurrentSubmittersAllTasksRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksPer = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksPer; ++i) {
        pool.submit([&counter] {
          counter.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksPer);
}

TEST(ThreadPoolStressTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A nested parallel_for on the same pool must not wait on the queue
    // (the outer task is in flight, so wait_idle would never return).
    pool.parallel_for(100, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 100);
}

TEST(ThreadPoolStressTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait_idle: shutdown itself must finish every queued task without
    // throwing or losing work.
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolStressTest, ParallelForWaitsOnlyForItsOwnChunks) {
  // An unrelated task (think: a streamer read-ahead stuck on I/O) holds a
  // worker until the latch opens. parallel_for must still return: it
  // waits for its own indices, not for the whole pool to go idle.
  ThreadPool pool(2);
  std::latch release(1);
  std::atomic<bool> blocker_done{false};
  pool.submit([&] {
    release.wait();
    blocker_done = true;
  });
  std::atomic<int> hits{0};
  pool.parallel_for(64, [&](std::size_t) {
    hits.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(hits.load(), 64);
  EXPECT_FALSE(blocker_done.load());
  release.count_down();
  pool.wait_idle();
  EXPECT_TRUE(blocker_done.load());
}

TEST(ThreadPoolStressTest, ConcurrentParallelForCallersDoNotWaitOnEachOther) {
  // Two non-worker callers share one pool. Both indices of the first
  // caller's loop block until the second caller's whole parallel_for has
  // returned — which deadlocks if a parallel_for waits for the pool to
  // drain, since the first caller's chunks hold two workers meanwhile.
  ThreadPool pool(4);
  std::latch second_returned(1);
  std::atomic<int> first_hits{0};
  std::thread first([&] {
    pool.parallel_for(2, [&](std::size_t) {
      second_returned.wait();
      first_hits.fetch_add(1);
    });
  });
  std::atomic<int> second_hits{0};
  pool.parallel_for(32, [&](std::size_t) { second_hits.fetch_add(1); });
  second_returned.count_down();
  first.join();
  EXPECT_EQ(first_hits.load(), 2);
  EXPECT_EQ(second_hits.load(), 32);
}

TEST(ThreadPoolStressTest, ParallelForRethrowsAfterAllChunksFinish) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 37) {
                                     throw std::runtime_error("index 37");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1);
}

// Sets AMPED_THREADS for one test and restores the previous value (and
// the default pool configuration) however the test exits.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("AMPED_THREADS")) saved_ = old;
    ::setenv("AMPED_THREADS", value, 1);
    set_host_parallelism(0);
  }
  ~ScopedThreadsEnv() {
    if (saved_) {
      ::setenv("AMPED_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("AMPED_THREADS");
    }
    set_host_parallelism(0);
  }

 private:
  std::optional<std::string> saved_;
};

TEST(GlobalThreadPoolTest, AmpedThreadsEnvSetsPoolSize) {
  ScopedThreadsEnv env("3");
  EXPECT_EQ(host_parallelism(), 3u);
}

class InvalidThreadsEnv : public ::testing::TestWithParam<const char*> {};

TEST_P(InvalidThreadsEnv, RejectedNamingVariableAndValue) {
  ScopedThreadsEnv env(GetParam());
  try {
    (void)host_parallelism();
    FAIL() << "AMPED_THREADS=" << GetParam() << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("AMPED_THREADS"), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("\"") + GetParam() + "\""),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(global_thread_pool(), std::invalid_argument);
  // An explicit override does not consult the environment.
  set_host_parallelism(2);
  EXPECT_EQ(host_parallelism(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Spellings, InvalidThreadsEnv,
    ::testing::Values("abc", "-2", "0", "4x"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      const std::string v = param.param;
      if (v == "abc") return std::string("letters");
      if (v == "-2") return std::string("negative");
      if (v == "0") return std::string("zero");
      return std::string("trailing_garbage");
    });

TEST(GlobalThreadPoolTest, OverrideControlsPoolSize) {
  ScopedHostParallelism scoped(3);
  EXPECT_EQ(host_parallelism(), 3u);
  EXPECT_EQ(global_thread_pool().size(), 3u);
}

// Parallel static-policy MTTKRP must be bit-identical to a serial run:
// GPUs own disjoint output rows and each GPU's element order is unchanged,
// so not a single rounding difference is tolerated.
class ParallelDeterminism
    : public ::testing::TestWithParam<SchedulingPolicy> {};

TEST_P(ParallelDeterminism, AllModesBitIdenticalToSerial) {
  GeneratorOptions gen;
  gen.dims = {96, 64, 48};
  gen.nnz = 6000;
  gen.zipf_exponents = {0.8, 0.0, 0.4};
  gen.seed = 11;
  const auto t = generate_random(gen);
  Rng rng(12);
  const FactorSet factors(t.dims(), 16, rng);

  AmpedBuildOptions build;
  build.num_gpus = 4;
  MttkrpOptions options;
  options.policy = GetParam();

  auto run = [&](std::size_t threads) {
    set_host_parallelism(threads);
    const auto tensor = AmpedTensor::build(t, build);
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, factors, outputs,
                                   options);
    return std::make_pair(std::move(outputs), report.total_seconds);
  };

  auto [serial_out, serial_seconds] = run(1);
  auto [parallel_out, parallel_seconds] = run(4);
  set_host_parallelism(0);

  ASSERT_EQ(serial_out.size(), parallel_out.size());
  for (std::size_t d = 0; d < serial_out.size(); ++d) {
    const auto a = serial_out[d].data();
    const auto b = parallel_out[d].data();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)), 0)
        << "mode " << d << " diverged";
  }
  // Simulated clocks are per-device, so the modelled time must also agree
  // exactly.
  EXPECT_EQ(serial_seconds, parallel_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    StaticPolicies, ParallelDeterminism,
    ::testing::Values(SchedulingPolicy::kStaticGreedy,
                      SchedulingPolicy::kContiguous,
                      SchedulingPolicy::kWeightedStatic),
    [](const ::testing::TestParamInfo<SchedulingPolicy>& param) {
      std::string name = to_string(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace amped
