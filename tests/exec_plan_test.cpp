// The execution-plan engine (src/exec/): golden-value equivalence against
// the frozen pre-engine loop (outputs everywhere, simulated times on one
// GPU), the cost-model scheduler on heterogeneous platforms, and the
// engine's reporting contract.
#include <gtest/gtest.h>

#include <cstring>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "exec/reference_loop.hpp"
#include "exec/scheduler.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"

namespace amped {
namespace {

CooTensor make_tensor(std::uint64_t seed, nnz_t nnz = 40000) {
  GeneratorOptions opt;
  opt.dims = {512, 256, 256};
  opt.nnz = nnz;
  opt.zipf_exponents = {0.8, 0.5, 0.5};
  opt.seed = seed;
  return generate_random(opt);
}

sim::Platform hetero_platform(double scale = 1.0) {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.workload_scale = scale;
  cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                       sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
  return sim::Platform(cfg);
}

// Bitwise equality of two matrices: the golden criterion. Any float
// tolerance here would hide a change in accumulation order.
void expect_bit_identical(const DenseMatrix& a, const DenseMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.bytes()), 0)
      << what << ": outputs differ bitwise";
}

// Agreement within 1e-9 of `scale` (the run's makespan): the engine and
// the frozen loop sum the same durations in a different order.
void expect_near_time(double engine, double loop, double scale,
                      const std::string& what) {
  EXPECT_NEAR(engine, loop, 1e-9 * scale) << what;
}

// Runs the same workload through the plan engine and through the frozen
// pre-engine loop on identically configured platforms, and demands
// bit-identical outputs. On a one-GPU platform the simulated times must
// also agree — totals, per-mode phases and per-phase aggregates within
// 1e-9 relative. With more GPUs the engine's dependency-graph model and
// the loop's per-lane clocks time the same work differently (the
// before/after makespan table lives in CHANGES.md), so only the EC
// seconds each GPU ran are compared (the dynamic queue binds units to
// the same GPUs as the loop's earliest-idle heap).
void expect_golden(const AmpedTensor& tensor, const FactorSet& factors,
                   const MttkrpOptions& options,
                   const std::function<sim::Platform()>& make_platform) {
  auto engine_platform = make_platform();
  auto loop_platform = make_platform();
  std::vector<DenseMatrix> engine_out, loop_out;
  const auto engine = mttkrp_all_modes(engine_platform, tensor, factors,
                                       engine_out, options);
  const auto loop = exec::reference_loop_mttkrp_all_modes(
      loop_platform, tensor, factors, loop_out, options);
  const std::string what =
      to_string(options.policy) +
      (options.pipelined_streaming ? "+pipelined" : "");

  ASSERT_EQ(engine_out.size(), loop_out.size()) << what;
  for (std::size_t d = 0; d < engine_out.size(); ++d) {
    expect_bit_identical(engine_out[d], loop_out[d],
                         what + " mode " + std::to_string(d));
  }
  ASSERT_EQ(engine.modes.size(), loop.modes.size()) << what;
  if (engine_platform.num_gpus() > 1) {
    EXPECT_EQ(engine.per_gpu_compute, loop.per_gpu_compute) << what;
    return;
  }

  const double scale = loop.total_seconds;
  expect_near_time(engine.total_seconds, loop.total_seconds, scale, what);
  expect_near_time(engine_platform.makespan(), loop_platform.makespan(),
                   scale, what);
  for (std::size_t d = 0; d < engine.modes.size(); ++d) {
    const auto& e = engine.modes[d];
    const auto& l = loop.modes[d];
    const std::string mode = what + " mode " + std::to_string(d);
    expect_near_time(e.seconds, l.seconds, scale, mode);
    expect_near_time(e.h2d, l.h2d, scale, mode + " h2d");
    expect_near_time(e.compute, l.compute, scale, mode + " compute");
    expect_near_time(e.p2p, l.p2p, scale, mode + " p2p");
    expect_near_time(e.sync, l.sync, scale, mode + " sync");
    EXPECT_EQ(e.per_gpu_compute, l.per_gpu_compute) << mode;
  }
  EXPECT_EQ(engine.per_gpu_compute, loop.per_gpu_compute) << what;
  const auto agg_e = engine_platform.aggregate_timeline();
  const auto agg_l = loop_platform.aggregate_timeline();
  for (std::size_t p = 0; p < sim::kNumPhases; ++p) {
    const auto phase = static_cast<sim::Phase>(p);
    expect_near_time(agg_e.total(phase), agg_l.total(phase), scale,
                     what + " phase " + std::to_string(p));
  }
}

// Every pre-engine policy, sequential and (for the static ones)
// pipelined, on the homogeneous default platform.
class ExecPlanGolden
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy, bool>> {};

TEST_P(ExecPlanGolden, BitIdenticalToReferenceLoop) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(201);
  Rng rng(202);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_golden(tensor, factors, options,
                [] { return sim::make_default_platform(4, 1000.0); });
}

TEST_P(ExecPlanGolden, BitIdenticalOnHeterogeneousPlatform) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(203);
  Rng rng(204);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_golden(tensor, factors, options,
                [] { return hetero_platform(1000.0); });
}

// One GPU: outputs AND simulated times, phase by phase.
TEST_P(ExecPlanGolden, BitIdenticalOnOneGpu) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(213);
  Rng rng(214);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 1;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_golden(tensor, factors, options,
                [] { return sim::make_default_platform(1, 1000.0); });
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ExecPlanGolden,
    ::testing::Values(
        std::pair{SchedulingPolicy::kStaticGreedy, false},
        std::pair{SchedulingPolicy::kStaticGreedy, true},
        std::pair{SchedulingPolicy::kContiguous, false},
        std::pair{SchedulingPolicy::kContiguous, true},
        std::pair{SchedulingPolicy::kWeightedStatic, false},
        std::pair{SchedulingPolicy::kWeightedStatic, true},
        std::pair{SchedulingPolicy::kDynamicQueue, false}),
    [](const auto& param_info) {
      std::string n = to_string(param_info.param.first);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + (param_info.param.second ? "_pipelined" : "");
    });

TEST(ExecPlanTest, GoldenThroughSpilledCopies) {
  // The disk-streamed path must lower to the same plan costs: force the
  // out-of-core build and compare engine vs. frozen loop end to end (on
  // one GPU including the simulated times).
  auto input = make_tensor(205, 20000);
  Rng rng(206);
  FactorSet factors(input.dims(), 8, rng);
  for (const int gpus : {2, 1}) {
    AmpedBuildOptions build;
    build.num_gpus = gpus;
    build.storage = BuildStorage::kSpilled;
    auto tensor = AmpedTensor::build(input, build);
    ASSERT_TRUE(tensor.spilled());
    for (bool pipelined : {false, true}) {
      MttkrpOptions options;
      options.pipelined_streaming = pipelined;
      expect_golden(tensor, factors, options, [gpus] {
        return sim::make_default_platform(gpus, 1000.0);
      });
    }
  }
}

TEST(ExecPlanTest, CostModelBalancesHeterogeneousPlatform) {
  // Asymmetric SM counts / bandwidths: LPT on per-device estimated
  // seconds must spread EC time far better than nnz-LPT, which hands the
  // small cards as many nonzeros as the big ones.
  GeneratorOptions gopt;
  gopt.dims = {2048, 1024, 1024};
  gopt.nnz = 600000;
  gopt.zipf_exponents = {0.5, 0.5, 0.5};
  gopt.seed = 207;
  auto input = generate_random(gopt);
  Rng rng(208);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.shards_per_gpu = 8;
  auto tensor = AmpedTensor::build(input, build);

  auto run_policy = [&](SchedulingPolicy policy) {
    auto platform = hetero_platform(1000.0);
    MttkrpOptions opt;
    opt.policy = policy;
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, factors, outputs, opt);
    return std::tuple{report.total_seconds,
                      report.compute_overhead_fraction(),
                      std::move(outputs)};
  };
  const auto [greedy_s, greedy_imb, greedy_out] =
      run_policy(SchedulingPolicy::kStaticGreedy);
  const auto [weighted_s, weighted_imb, weighted_out] =
      run_policy(SchedulingPolicy::kWeightedStatic);
  const auto [dynamic_s, dynamic_imb, dynamic_out] =
      run_policy(SchedulingPolicy::kDynamicQueue);
  const auto [cost_s, cost_imb, cost_out] =
      run_policy(SchedulingPolicy::kCostModel);
  (void)weighted_imb;
  (void)dynamic_imb;
  (void)greedy_out;
  (void)weighted_out;
  (void)dynamic_out;

  EXPECT_LT(cost_imb, greedy_imb * 0.8)
      << "cost-model EC spread " << cost_imb << " vs greedy " << greedy_imb;
  // The scheduler optimises makespan, and on this platform it must beat
  // every pre-engine policy outright: nnz-LPT ignores device speed,
  // weighted-static prices devices with one scalar, and dynamic dispatch
  // pays its greedy arrival order.
  EXPECT_LT(cost_s, greedy_s);
  EXPECT_LT(cost_s, weighted_s);
  EXPECT_LT(cost_s, dynamic_s);

  // Numerics stay right: every policy matches the sequential
  // double-precision reference.
  const auto refs = reference_mttkrp_all_modes(input, factors);
  for (std::size_t d = 0; d < refs.size(); ++d) {
    EXPECT_LT(relative_max_diff(refs[d], cost_out[d]), 5e-4) << d;
  }
}

TEST(ExecPlanTest, CostModelEstimateOrdersDevicesBySpeed) {
  auto input = make_tensor(209);
  Rng rng(210);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  // Few, large shards: a grid that saturates both device types, so the
  // device-level bandwidth gap (not the per-SM slice) decides speed.
  build.shards_per_gpu = 2;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = hetero_platform();

  MttkrpOptions options;
  std::vector<DenseMatrix> out(1, DenseMatrix(input.dim(0), 16));
  const exec::ModeLowerInput in{
      platform, tensor, 0, factors, out[0], options,
      resolve_mttkrp_profile(options, tensor, 0, platform, 16)};
  nnz_t best = 0;
  const Shard* shard = nullptr;
  for (const auto& s : tensor.mode_copy(0).partition.shards) {
    if (s.nnz() > best) {
      best = s.nnz();
      shard = &s;
    }
  }
  ASSERT_NE(shard, nullptr);
  // GPUs 0/1 are Ada-class, 2/3 are A4000-class: a saturating shard must
  // be estimated strictly cheaper on the faster device, and identically
  // across identical devices.
  EXPECT_LT(exec::estimate_shard_seconds(in, *shard, 0),
            exec::estimate_shard_seconds(in, *shard, 3));
  EXPECT_EQ(exec::estimate_shard_seconds(in, *shard, 0),
            exec::estimate_shard_seconds(in, *shard, 1));
}

TEST(ExecPlanTest, PerGpuComputeSizedByPlatformWithIdleGpus) {
  // Mode 0 has only 2 output indices -> at most 2 shards, so on a 4-GPU
  // platform two devices never receive work. The report must still cover
  // every GPU (zeros for the idle ones) — the aggregation guard for the
  // heterogeneous/idle-GPU case.
  GeneratorOptions opt;
  opt.dims = {2, 128, 128};
  opt.nnz = 5000;
  opt.zipf_exponents = {0.0, 0.5, 0.5};
  opt.seed = 211;
  auto input = generate_random(opt);
  Rng rng(212);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);
  ASSERT_LE(tensor.mode_copy(0).partition.shards.size(), 2u);

  auto platform = sim::make_default_platform(4);
  std::vector<DenseMatrix> outputs;
  auto report =
      mttkrp_all_modes(platform, tensor, factors, outputs, MttkrpOptions{});
  ASSERT_EQ(report.per_gpu_compute.size(), 4u);
  for (const auto& m : report.modes) {
    EXPECT_EQ(m.per_gpu_compute.size(), 4u) << "mode " << m.mode;
  }
  int idle = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    if (report.modes[0].per_gpu_compute[g] == 0.0) ++idle;
  }
  EXPECT_GE(idle, 2) << "expected idle GPUs on the 2-shard mode";

  const auto refs = reference_mttkrp_all_modes(input, factors);
  for (std::size_t d = 0; d < refs.size(); ++d) {
    EXPECT_LT(relative_max_diff(refs[d], outputs[d]), 5e-4) << d;
  }
}

TEST(ExecPlanTest, SchedulerNamesAndParsersRoundTrip) {
  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue,
        SchedulingPolicy::kContiguous, SchedulingPolicy::kWeightedStatic,
        SchedulingPolicy::kCostModel,
        SchedulingPolicy::kDynamicLookahead}) {
    EXPECT_EQ(parse_policy(to_string(policy)), policy);
    MttkrpOptions options;
    options.policy = policy;
    EXPECT_EQ(exec::make_scheduler(options)->name(), to_string(policy));
    options.pipelined_streaming = true;
    // The dynamic policies never take the "+pipelined" suffix: plain
    // dynamic dispatch stays sequential, and look-ahead dispatch is the
    // pipelined variant by definition.
    if (policy != SchedulingPolicy::kDynamicQueue &&
        policy != SchedulingPolicy::kDynamicLookahead) {
      EXPECT_EQ(exec::make_scheduler(options)->name(),
                to_string(policy) + "+pipelined");
    }
  }
  for (auto algo : {AllGatherAlgo::kRing, AllGatherAlgo::kDirect,
                    AllGatherAlgo::kHostStaged}) {
    EXPECT_EQ(parse_allgather(to_string(algo)), algo);
  }
  EXPECT_THROW(parse_policy("fastest"), std::invalid_argument);
  EXPECT_THROW(parse_allgather("broadcast"), std::invalid_argument);
}

}  // namespace
}  // namespace amped
