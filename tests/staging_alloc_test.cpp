// Deterministic companion of the H2D staging cost: heap allocations
// counted, not wall time, so the regression class "staging allocates per
// unit" fails the same way on any host.
//
// A multi-unit plan (dynamic-queue: one dispatch unit per shard, every H2D
// staged by whichever lane takes the unit) runs on the host backend,
// resident and spilled, and its factors must equal the simulator's. Over
// that run the two staging buffers count their own allocations:
//  - exec.h2d_buffer_allocations, the lanes' H2D staging buffers: at most
//    one per lane per plan (each lane sizes its buffer for the largest
//    payload on its first H2D);
//  - stream.slot_buffer_allocations, the spilled streams' slot buffers: at
//    most two per stream (one per slot, sized for the largest range).
// A buffer made per unit, or a slot buffer reset per position, allocates
// once per unit and exceeds both bounds. That the counters see every heap
// allocation of a load is checked with this binary's counting global
// operator new: a load into a buffer that holds its range makes none.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "exec/scheduler.hpp"
#include "io/shard_stream.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/metrics.hpp"

namespace {
// Allocations made by the calling thread. Thread-local, so pool threads
// that happen to wake during a measured call cannot move it.
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// malloc/free underneath, so GCC's new/delete pairing check does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace amped {
namespace {

constexpr int kGpus = 4;

AmpedTensor build(const CooTensor& input, bool spilled,
                  const std::string& dir) {
  AmpedBuildOptions options;
  options.num_gpus = kGpus;
  options.shards_per_gpu = 6;
  options.storage = spilled ? BuildStorage::kSpilled : BuildStorage::kResident;
  options.spill_dir = dir;
  return AmpedTensor::build(input, options);
}

enum class Storage { kResident, kSpilled };

class StagingAllocations : public ::testing::TestWithParam<Storage> {};

TEST_P(StagingAllocations, BuffersStopAllocatingOnceGrown) {
  const bool spilled = GetParam() == Storage::kSpilled;
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() /
                   ("amped_staging_alloc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  GeneratorOptions gen;
  gen.dims = {300, 200, 120};
  gen.nnz = 40000;
  gen.zipf_exponents = {0.9, 0.6, 0.3};
  gen.seed = 31;
  const CooTensor input = generate_random(gen);
  {
    const AmpedTensor tensor = build(input, spilled, dir.string());
    ASSERT_EQ(tensor.spilled(), spilled);
    Rng rng(3);
    const FactorSet factors(tensor.dims(), 16, rng);
    MttkrpOptions options;
    options.policy = SchedulingPolicy::kDynamicQueue;
    auto sim_platform = sim::make_default_platform(kGpus, 1000.0);

    // Each mode's plan: its H2D units and spilled streams set the bounds.
    std::size_t units = 0;
    std::uint64_t lane_bound = 0;
    std::uint64_t slot_bound = 0;
    std::size_t widest = 0;  // the largest payload's record bytes
    std::vector<std::pair<std::size_t, std::pair<nnz_t, nnz_t>>> payloads;
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      DenseMatrix out(tensor.dims()[d], factors.rank());
      const exec::ModeLowerInput in{
          sim_platform, tensor,  d, factors, out, options,
          resolve_mttkrp_profile(options, tensor, d, sim_platform,
                                 factors.rank())};
      const exec::Plan plan = exec::make_scheduler(options)->lower(in);
      std::size_t mode_units = 0;
      for (const exec::Task& t : plan.tasks) {
        if (t.kind != exec::TaskKind::kH2D) continue;
        ASSERT_LT(t.payload_begin, t.payload_end);
        payloads.push_back({d, {t.payload_begin, t.payload_end}});
        widest = std::max<std::size_t>(
            widest, (t.payload_end - t.payload_begin) *
                        tensor.mode_copy(d).span().layout->record_bytes());
        ++mode_units;
      }
      EXPECT_GT(mode_units, static_cast<std::size_t>(kGpus + 2))
          << "mode " << d << " is not multi-unit";
      units += mode_units;
      lane_bound += kGpus;
      if (spilled) slot_bound += 2 * plan.streamers.size();
    }

    // The plan on the host backend, counted, against the simulator.
    metrics::set_enabled(true);
    auto& lane_allocations = metrics::counter("exec.h2d_buffer_allocations");
    auto& slot_allocations =
        metrics::counter("stream.slot_buffer_allocations");
    const std::uint64_t lanes_before = lane_allocations.value();
    const std::uint64_t slots_before = slot_allocations.value();
    std::vector<DenseMatrix> host_out, sim_out;
    auto host_platform = sim::make_default_platform(kGpus, 1000.0);
    options.backend = exec::ExecBackend::kHostParallel;
    mttkrp_all_modes(host_platform, tensor, factors, host_out, options);
    const std::uint64_t lanes = lane_allocations.value() - lanes_before;
    const std::uint64_t slots = slot_allocations.value() - slots_before;
    options.backend = exec::ExecBackend::kSimulated;
    mttkrp_all_modes(sim_platform, tensor, factors, sim_out, options);
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      ASSERT_EQ(0, std::memcmp(host_out[d].data().data(),
                               sim_out[d].data().data(),
                               host_out[d].data().size() * sizeof(value_t)))
          << "mode " << d;
    }

    // The counters are the whole cost: a load into a buffer that holds its
    // range makes no heap allocation, through either kind of load.
    RecordBuffer lane_buffer, slot_buffer;
    lane_buffer.reserve(widest);
    slot_buffer.reserve(widest);
    const std::uint64_t replay_before = t_allocations;
    for (const auto& [d, range] : payloads) {
      const auto& copy = tensor.mode_copy(d);
      RecordSpan view = copy.span();
      if (spilled) view = copy.spill->load(range.first, range.second,
                                           slot_buffer);
      lane_buffer.load(view, range.first, range.second);
    }
    const std::uint64_t replayed = t_allocations - replay_before;

    std::printf(
        "[staging] %s: %zu H2D units over %zu modes; lane buffer "
        "allocations %llu (bound %llu), slot buffer allocations %llu "
        "(bound %llu); %zu replayed loads into held buffers: %llu heap "
        "allocations\n",
        spilled ? "spilled" : "resident", units, tensor.num_modes(),
        static_cast<unsigned long long>(lanes),
        static_cast<unsigned long long>(lane_bound),
        static_cast<unsigned long long>(slots),
        static_cast<unsigned long long>(slot_bound), payloads.size(),
        static_cast<unsigned long long>(replayed));
    EXPECT_GT(lanes, 0u) << "no H2D staged";
    EXPECT_LE(lanes, lane_bound);
    if (spilled) {
      EXPECT_GT(slots, 0u) << "no slot loaded";
    }
    EXPECT_LE(slots, slot_bound);
    EXPECT_EQ(replayed, 0u);
  }
  fs::remove_all(dir);
}

std::string copies_name(const ::testing::TestParamInfo<Storage>& p) {
  return p.param == Storage::kSpilled ? "spilled" : "resident";
}

INSTANTIATE_TEST_SUITE_P(Copies, StagingAllocations,
                         ::testing::Values(Storage::kResident,
                                           Storage::kSpilled),
                         copies_name);

}  // namespace
}  // namespace amped
