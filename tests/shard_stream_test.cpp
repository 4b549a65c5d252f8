// ShardStreamer's lease contract, driven directly: positions acquired by
// several threads in any order, the two-slot wait (acquire(p + 2) blocks
// until p's lease is released), resident pass-through, a spill read that
// fails at one position, cancellation of a waiting acquire, and the
// budget charge given back when the streamer goes. Waits are checked by
// ordering (a latch and the stream.slot_waits counter), never by a sleep.
// Also in the TSan lane: the acquires race the pool's read-ahead tasks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/amped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/shard_stream.hpp"
#include "tensor/generator.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

class ShardStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_host_parallelism(4);
    metrics::set_enabled(true);
    fault::disarm_all();
    dir_ = fs::temp_directory_path() /
           ("amped_shard_stream_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    GeneratorOptions gen;
    gen.dims = {200, 150, 100};
    gen.nnz = 20000;
    gen.seed = 17;
    AmpedBuildOptions options;
    options.num_gpus = 4;
    options.shards_per_gpu = 3;
    options.storage = BuildStorage::kSpilled;
    options.spill_dir = dir_.string();
    tensor_ = AmpedTensor::build(generate_random(gen), options);
    ASSERT_TRUE(tensor_.spilled());
  }
  void TearDown() override {
    fault::disarm_all();
    tensor_ = AmpedTensor();
    fs::remove_all(dir_);
    set_host_parallelism(0);
  }

  const io::SpilledModeCopy& spill() const {
    return *tensor_.mode_copy(0).spill;
  }
  // Every shard of mode 0, in partition order.
  std::vector<std::pair<nnz_t, nnz_t>> ranges() const {
    std::vector<std::pair<nnz_t, nnz_t>> out;
    for (const auto& shard : tensor_.mode_copy(0).partition.shards) {
      out.emplace_back(shard.nnz_begin, shard.nnz_end);
    }
    return out;
  }
  // The view holds exactly range `r`, byte for byte as the spill file.
  void expect_range(const io::ShardStreamer::View& view,
                    std::pair<nnz_t, nnz_t> r) const {
    const auto all = spill().span();
    ASSERT_EQ(view.base, r.first);
    ASSERT_EQ(view.end(), r.second);
    EXPECT_EQ(0, std::memcmp(view.data, all.record(r.first), view.bytes()));
  }

  fs::path dir_;
  AmpedTensor tensor_;
};

std::uint64_t slot_waits() {
  return metrics::counter("stream.slot_waits").value();
}

// Spins (yielding, no sleep) until another thread has entered a slot wait.
void await_slot_wait(std::uint64_t before) {
  while (slot_waits() == before) std::this_thread::yield();
}

TEST_F(ShardStreamTest, TwoThreadsAcquireOutOfOrderAndReadTheSpill) {
  const auto r = ranges();
  ASSERT_GE(r.size(), 8u);
  io::ShardStreamer streamer(spill(), r);
  // Each thread claims two positions at a time, like a lane claiming a
  // unit, and acquires the later one first. A claim may wait for the
  // other thread to release the slots of the pair before it.
  std::mutex claim;
  std::size_t next = 0;
  std::atomic<std::size_t> checked{0};
  auto worker = [&] {
    for (;;) {
      std::size_t p = 0;
      {
        std::lock_guard lock(claim);
        if (next >= r.size()) return;
        p = next;
        next += 2;
      }
      if (p + 1 < r.size()) {
        const auto later = streamer.acquire(p + 1);
        expect_range(later.view(), r[p + 1]);
        checked.fetch_add(1);
      }
      const auto lease = streamer.acquire(p);
      expect_range(lease.view(), r[p]);
      checked.fetch_add(1);
    }
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  EXPECT_EQ(checked.load(), r.size());
}

TEST_F(ShardStreamTest, AcquireTwoAheadWaitsForTheRelease) {
  const auto r = ranges();
  io::ShardStreamer streamer(spill(), r);
  auto lease0 = streamer.acquire(0);
  const auto lease1 = streamer.acquire(1);
  EXPECT_GT(io::HostMemoryBudget::global().in_use(), 0u)
      << "a loaded slot is charged against the budget";
  const std::uint64_t before = slot_waits();
  std::atomic<bool> released{false};
  std::atomic<bool> returned{false};
  std::latch started(1);
  std::thread waiter([&] {
    started.count_down();
    const auto lease2 = streamer.acquire(2);
    EXPECT_TRUE(released.load()) << "acquire(2) returned before 0's release";
    expect_range(lease2.view(), r[2]);
    returned.store(true);
  });
  started.wait();
  await_slot_wait(before);
  // The waiter is past the counter, waiting on slot 0: it cannot return
  // until position 0 is released.
  EXPECT_FALSE(returned.load());
  released.store(true);
  lease0.reset();
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(slot_waits(), before + 1);
}

TEST_F(ShardStreamTest, ResidentSourceIsPassedThrough) {
  GeneratorOptions gen;
  gen.dims = {40, 30, 20};
  gen.nnz = 2000;
  gen.seed = 3;
  AmpedBuildOptions options;
  options.num_gpus = 2;
  const auto resident = AmpedTensor::build(generate_random(gen), options);
  ASSERT_FALSE(resident.spilled());
  const RecordSpan whole = resident.mode_copy(1).span();
  io::ShardStreamer streamer(whole);
  EXPECT_EQ(&streamer.layout(), whole.layout);
  // Every position views the whole copy, and leases never wait: hold
  // three at once.
  const auto a = streamer.acquire(0);
  const auto b = streamer.acquire(5);
  const auto c = streamer.acquire(2);
  for (const auto* lease : {&a, &b, &c}) {
    ASSERT_TRUE(*lease);
    EXPECT_EQ(lease->view().data, whole.data);
    EXPECT_EQ(lease->view().base, whole.base);
    EXPECT_EQ(lease->view().count, whole.count);
  }
}

TEST_F(ShardStreamTest, SpillReadFaultSurfacesAtItsPosition) {
  const auto r = ranges();
  io::ShardStreamer streamer(spill(), r);
  auto lease0 = streamer.acquire(0);
  auto lease1 = streamer.acquire(1);
  {
    // Positions 0 and 1 are loaded; the next load is position 2's, which
    // releasing 0 schedules.
    fault::FaultScope scope("spill.read", {.nth = 1, .times = 1u << 20});
    lease0.reset();
    try {
      (void)streamer.acquire(2);
      FAIL() << "expected position 2's spill read to fail";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("spill.read"), std::string::npos)
          << e.what();
    }
  }
  // The fault is position 2's alone: position 3 loads once 1 is released.
  lease1.reset();
  const auto lease3 = streamer.acquire(3);
  expect_range(lease3.view(), r[3]);
}

TEST_F(ShardStreamTest, CancelWakesAWaitingAcquire) {
  const auto r = ranges();
  io::ShardStreamer streamer(spill(), r);
  // Position 0 is claimed and held, as by a lane that stopped before
  // giving it back; a peer waits for its slot.
  const auto lease0 = streamer.acquire(0);
  const std::uint64_t before = slot_waits();
  std::atomic<bool> threw{false};
  std::latch started(1);
  std::thread waiter([&] {
    started.count_down();
    try {
      (void)streamer.acquire(2);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos)
          << e.what();
      threw.store(true);
    }
  });
  started.wait();
  await_slot_wait(before);
  streamer.cancel();
  waiter.join();
  EXPECT_TRUE(threw.load());
  // Every later acquire throws too, even of a loaded position.
  EXPECT_THROW((void)streamer.acquire(1), std::runtime_error);
}

TEST_F(ShardStreamTest, DestroyedStreamerLeavesTheBudgetAtZero) {
  auto& budget = io::HostMemoryBudget::global();
  const std::uint64_t before = budget.in_use();
  const auto r = ranges();
  io::ShardStreamer::Lease outliving;
  {
    io::ShardStreamer streamer(spill(), r);
    {
      const auto lease0 = streamer.acquire(0);
      EXPECT_GT(budget.in_use(), before);
    }
    outliving = streamer.acquire(1);
    // Position 2 is loading or loaded, never acquired.
  }
  // The destroyed streamer gave back every slot but the leased one, whose
  // charge goes with its lease.
  EXPECT_GT(budget.in_use(), before);
  expect_range(outliving.view(), r[1]);
  outliving.reset();
  EXPECT_EQ(budget.in_use(), before);
  EXPECT_EQ(before, 0u);
}

}  // namespace
}  // namespace amped
