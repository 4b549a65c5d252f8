// Plan composition (exec/compose.hpp), batched MTTKRP/CPD (core/batch.hpp)
// and the look-ahead dynamic scheduler: batched execution must be
// bit-identical per tensor to solo execution, never slower than running
// the workloads back to back, and kDynamicLookahead must beat plain
// dynamic dispatch when transfers dominate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/compose.hpp"
#include "exec/scheduler.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"

namespace amped {
namespace {

CooTensor make_tensor(std::uint64_t seed, std::vector<index_t> dims,
                      nnz_t nnz, std::vector<double> zipf = {0.8, 0.5, 0.5}) {
  GeneratorOptions opt;
  opt.dims = std::move(dims);
  opt.nnz = nnz;
  opt.zipf_exponents = std::move(zipf);
  opt.seed = seed;
  return generate_random(opt);
}

sim::Platform hetero_platform(double scale = 1000.0) {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.workload_scale = scale;
  cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                       sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
  return sim::Platform(cfg);
}

void expect_bit_identical(const DenseMatrix& a, const DenseMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.bytes()), 0)
      << what << ": outputs differ bitwise";
}

struct Workload {
  AmpedTensor tensor;
  FactorSet factors;
};

std::vector<Workload> make_workloads(int num_gpus) {
  std::vector<Workload> out;
  AmpedBuildOptions build;
  build.num_gpus = num_gpus;
  {
    Workload w;
    auto input = make_tensor(301, {512, 256, 256}, 40000);
    Rng rng(302);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    out.push_back(std::move(w));
  }
  {
    Workload w;
    auto input = make_tensor(303, {300, 500, 128}, 30000, {0.4, 0.9, 0.3});
    Rng rng(304);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    out.push_back(std::move(w));
  }
  return out;
}

// Runs the workloads solo (back to back on fresh platforms) and batched,
// and demands: per-tensor bit-identical outputs, composed makespan no
// worse than the sum of solo makespans, and per-tensor compute
// attribution matching the solo numbers exactly.
void expect_batched_matches_solo(
    const std::vector<Workload>& workloads, const MttkrpOptions& options,
    const std::function<sim::Platform()>& make_platform,
    bool expect_bitwise = true) {
  std::vector<std::vector<DenseMatrix>> solo_out(workloads.size());
  std::vector<MttkrpReport> solo_reports;
  double solo_sum = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    auto platform = make_platform();
    solo_reports.push_back(mttkrp_all_modes(platform, workloads[i].tensor,
                                            workloads[i].factors,
                                            solo_out[i], options));
    solo_sum += solo_reports.back().total_seconds;
  }

  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});
  auto platform = make_platform();
  std::vector<std::vector<DenseMatrix>> batch_out;
  const auto report = mttkrp_batch(platform, batch, batch_out, options);

  ASSERT_EQ(batch_out.size(), workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    ASSERT_EQ(batch_out[i].size(), solo_out[i].size()) << "tensor " << i;
    for (std::size_t d = 0; d < solo_out[i].size(); ++d) {
      if (expect_bitwise) {
        expect_bit_identical(batch_out[i][d], solo_out[i][d],
                             "tensor " + std::to_string(i) + " mode " +
                                 std::to_string(d));
      } else {
        // Dynamic placement on heterogeneous GPUs can reorder the
        // accumulation (ISP geometry differs per device), so bitwise
        // equality is off the table — but a wrong scope routing one
        // tensor's updates into another's buffer would still blow this
        // double-precision reference bound.
        EXPECT_LT(relative_max_diff(solo_out[i][d], batch_out[i][d]), 5e-4)
            << "tensor " << i << " mode " << d;
      }
    }
  }

  // Composed makespan <= sum of solo makespans: the acceptance criterion.
  EXPECT_LE(report.total_seconds, solo_sum * (1.0 + 1e-12))
      << "composed " << report.total_seconds << " vs back-to-back "
      << solo_sum;

  // One graph dispatch, and disjoint outputs must actually elide: one
  // barrier per chain link (one link per workload mode).
  std::size_t links = 0;
  for (const auto& w : workloads) links += w.tensor.num_modes();
  EXPECT_EQ(report.graph_dispatches, 1u);
  EXPECT_EQ(report.elided_barriers, links);

  // Per-tensor compute attribution comes from per-scope accounting and
  // must match the solo numbers exactly when the assignment is static
  // (same shards, same GPUs, same arithmetic).
  if (expect_bitwise && options.policy != SchedulingPolicy::kDynamicQueue &&
      options.policy != SchedulingPolicy::kDynamicLookahead) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      ASSERT_EQ(report.per_tensor_gpu_compute[i].size(),
                solo_reports[i].per_gpu_compute.size());
      for (std::size_t g = 0; g < solo_reports[i].per_gpu_compute.size();
           ++g) {
        EXPECT_EQ(report.per_tensor_gpu_compute[i][g],
                  solo_reports[i].per_gpu_compute[g])
            << "tensor " << i << " gpu " << g;
      }
    }
  }
}

class PlanCompose
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy, bool>> {};

TEST_P(PlanCompose, BatchedBitIdenticalAndNoSlowerHomogeneous) {
  const auto [policy, pipelined] = GetParam();
  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_batched_matches_solo(
      make_workloads(4), options,
      [] { return sim::make_default_platform(4, 1000.0); });
}

TEST_P(PlanCompose, BatchedBitIdenticalAndNoSlowerHeterogeneous) {
  const auto [policy, pipelined] = GetParam();
  // Dynamic placement depends on device clocks, and a shard landing on a
  // device with a different SM count changes its ISP split (and so the
  // accumulation order): on the heterogeneous box only the static
  // policies promise bitwise equality with solo runs.
  const bool bitwise = policy != SchedulingPolicy::kDynamicQueue &&
                       policy != SchedulingPolicy::kDynamicLookahead;
  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_batched_matches_solo(make_workloads(4), options,
                              [] { return hetero_platform(); }, bitwise);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlanCompose,
    ::testing::Values(
        std::pair{SchedulingPolicy::kStaticGreedy, false},
        std::pair{SchedulingPolicy::kStaticGreedy, true},
        std::pair{SchedulingPolicy::kCostModel, false},
        std::pair{SchedulingPolicy::kCostModel, true},
        std::pair{SchedulingPolicy::kDynamicQueue, false},
        std::pair{SchedulingPolicy::kDynamicLookahead, false}),
    [](const auto& param_info) {
      std::string n = to_string(param_info.param.first);
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n + (param_info.param.second ? "_pipelined" : "");
    });

TEST(PlanComposeTest, DynamicCompositionStrictlyBeatsBackToBackStraggler) {
  // Tensor A's hot shard (zipf 1.3 on the output mode) is a straggler:
  // in a back-to-back dynamic run three GPUs stall at A's barrier while
  // it drains. Composition lets those GPUs pull tensor B's shards from
  // the merged queue instead, so the composed makespan must be strictly
  // better, not just no worse.
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.shards_per_gpu = 4;
  std::vector<Workload> workloads;
  {
    Workload w;
    auto input = make_tensor(311, {64, 256, 256}, 60000, {1.3, 0.3, 0.3});
    Rng rng(312);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    auto input = make_tensor(313, {400, 300, 200}, 50000, {0.3, 0.3, 0.3});
    Rng rng(314);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    workloads.push_back(std::move(w));
  }

  MttkrpOptions options;
  options.policy = SchedulingPolicy::kDynamicQueue;
  double solo_sum = 0.0;
  for (const auto& w : workloads) {
    auto platform = sim::make_default_platform(4, 1000.0);
    std::vector<DenseMatrix> out;
    solo_sum +=
        mttkrp_all_modes(platform, w.tensor, w.factors, out, options)
            .total_seconds;
  }
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});
  auto platform = sim::make_default_platform(4, 1000.0);
  std::vector<std::vector<DenseMatrix>> batch_out;
  const auto report = mttkrp_batch(platform, batch, batch_out, options);
  EXPECT_LT(report.total_seconds, solo_sum)
      << "straggler fill-in should make composition strictly faster";

  // Numerics stay right even though dynamic placement interleaves.
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto refs = reference_mttkrp_all_modes(
        decode_copy(workloads[i].tensor.mode_copy(0)), workloads[i].factors);
    for (std::size_t d = 0; d < refs.size(); ++d) {
      EXPECT_LT(relative_max_diff(refs[d], batch_out[i][d]), 5e-4)
          << "tensor " << i << " mode " << d;
    }
  }
}

TEST(PlanComposeTest, LookaheadBeatsDynamicOnTransferBoundHetero) {
  // A narrow host link makes every shard transfer-bound; plain dynamic
  // dispatch serialises H2D behind compute on the device clock, while the
  // look-ahead dispatcher streams shard i+1 during grid i. The acceptance
  // criterion: kDynamicLookahead strictly beats kDynamicQueue makespan.
  auto input = make_tensor(321, {512, 256, 256}, 60000);
  Rng rng(322);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  auto make_platform = [] {
    sim::PlatformConfig cfg;
    cfg.num_gpus = 4;
    cfg.workload_scale = 1000.0;
    cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                         sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
    cfg.host_aggregate_bandwidth = 24e9;  // 6 GB/s per GPU: transfer-bound
    return sim::Platform(cfg);
  };

  auto run = [&](SchedulingPolicy policy) {
    auto platform = make_platform();
    MttkrpOptions options;
    options.policy = policy;
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, factors, outputs,
                                   options);
    return std::pair{report.total_seconds, std::move(outputs)};
  };
  const auto [dynamic_s, dynamic_out] = run(SchedulingPolicy::kDynamicQueue);
  const auto [lookahead_s, lookahead_out] =
      run(SchedulingPolicy::kDynamicLookahead);
  EXPECT_LT(lookahead_s, dynamic_s)
      << "look-ahead " << lookahead_s << " vs dynamic " << dynamic_s;

  const auto refs = reference_mttkrp_all_modes(input, factors);
  for (std::size_t d = 0; d < refs.size(); ++d) {
    EXPECT_LT(relative_max_diff(refs[d], lookahead_out[d]), 5e-4) << d;
  }
}

TEST(PlanComposeTest, OverlappingChainsThrow) {
  // Two chains writing the same output matrix cannot be proven disjoint,
  // and chains run against each other with no ordering edges:
  // compose_graph must refuse them.
  auto input = make_tensor(331, {128, 64, 64}, 5000);
  Rng rng(332);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(2, 1000.0);

  MttkrpOptions options;
  DenseMatrix out(input.dim(0), 8);
  const exec::ModeLowerInput in{
      platform, tensor, 0, factors, out, options,
      resolve_mttkrp_profile(options, tensor, 0, platform, 8)};
  const auto scheduler = exec::make_scheduler(options);
  std::vector<std::vector<exec::Plan>> chains(2);
  chains[0].push_back(scheduler->lower(in));
  chains[1].push_back(scheduler->lower(in));
  EXPECT_THROW(exec::compose_graph(chains), std::invalid_argument);
  std::vector<std::vector<exec::Plan>> none;
  EXPECT_THROW(exec::compose_graph(none), std::invalid_argument);
}

TEST(PlanComposeTest, MixedDispatchDisciplinesCompose) {
  // A static chain and a dynamic chain share one graph: the static lanes
  // keep their GPUs, the dynamic units bind at admission, and each
  // output matches its solo run bit for bit.
  auto input = make_tensor(341, {128, 64, 64}, 5000);
  Rng rng(342);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(2, 1000.0);

  MttkrpOptions static_opt;
  MttkrpOptions dynamic_opt;
  dynamic_opt.policy = SchedulingPolicy::kDynamicQueue;
  auto lower = [&](const MttkrpOptions& opt, DenseMatrix& out) {
    const exec::ModeLowerInput in{
        platform, tensor, 0, factors, out, opt,
        resolve_mttkrp_profile(opt, tensor, 0, platform, 8)};
    return exec::make_scheduler(opt)->lower(in);
  };
  DenseMatrix out_a(input.dim(0), 8), out_b(input.dim(0), 8);
  std::vector<std::vector<exec::Plan>> chains(2);
  chains[0].push_back(lower(static_opt, out_a));
  chains[1].push_back(lower(dynamic_opt, out_b));
  exec::Plan plan = exec::compose_graph(chains);
  const auto report = exec::PlanExecutor(platform).run(plan);
  EXPECT_EQ(report.gather_edges.size(), 2u);

  for (const auto* opt : {&static_opt, &dynamic_opt}) {
    auto solo_platform = sim::make_default_platform(2, 1000.0);
    DenseMatrix solo(input.dim(0), 8);
    const exec::ModeLowerInput in{
        solo_platform, tensor, 0, factors, solo, *opt,
        resolve_mttkrp_profile(*opt, tensor, 0, solo_platform, 8)};
    exec::Plan p = exec::make_scheduler(*opt)->lower(in);
    exec::PlanExecutor(solo_platform).run(p);
    expect_bit_identical(opt == &static_opt ? out_a : out_b, solo,
                         to_string(opt->policy));
  }
}

TEST(PlanComposeTest, SpilledShardsPriceFromPersistedRunStats) {
  // The run-stats segment written at spill time must make the cost-model
  // estimate of a spilled shard exactly equal to the resident estimate
  // (one scan of real structure, not the index-width guess).
  auto input = make_tensor(351, {512, 256, 256}, 20000);
  Rng rng(352);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto resident = AmpedTensor::build(input, build);
  build.storage = BuildStorage::kSpilled;
  auto spilled = AmpedTensor::build(input, build);
  ASSERT_TRUE(spilled.spilled());
  ASSERT_FALSE(
      spilled.mode_copy(0).spill->shard_run_stats().empty());

  auto platform = hetero_platform(1.0);
  MttkrpOptions options;
  for (std::size_t d = 0; d < resident.num_modes(); ++d) {
    DenseMatrix out(input.dim(d), 16);
    const exec::ModeLowerInput in_res{
        platform, resident, d, factors, out, options,
        resolve_mttkrp_profile(options, resident, d, platform, 16)};
    const exec::ModeLowerInput in_spl{
        platform, spilled, d, factors, out, options,
        resolve_mttkrp_profile(options, spilled, d, platform, 16)};
    const auto& shards = resident.mode_copy(d).partition.shards;
    const auto& spl_shards = spilled.mode_copy(d).partition.shards;
    ASSERT_EQ(shards.size(), spl_shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
      for (int g = 0; g < platform.num_gpus(); ++g) {
        EXPECT_EQ(exec::estimate_shard_seconds(in_res, shards[s], g),
                  exec::estimate_shard_seconds(in_spl, spl_shards[s], g))
            << "mode " << d << " shard " << s << " gpu " << g;
      }
    }
  }
}

TEST(PlanComposeTest, BatchedSpilledWorkloadsStayBitIdentical) {
  // Composition must also hold when one workload streams from disk: mix a
  // resident tensor with a spilled one and demand solo-equal outputs.
  AmpedBuildOptions build;
  build.num_gpus = 2;
  std::vector<Workload> workloads;
  {
    Workload w;
    auto input = make_tensor(361, {256, 128, 128}, 20000);
    Rng rng(362);
    w.factors = FactorSet(input.dims(), 8, rng);
    w.tensor = AmpedTensor::build(input, build);
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    auto input = make_tensor(363, {200, 150, 100}, 15000);
    Rng rng(364);
    w.factors = FactorSet(input.dims(), 8, rng);
    AmpedBuildOptions spill = build;
    spill.storage = BuildStorage::kSpilled;
    w.tensor = AmpedTensor::build(input, spill);
    workloads.push_back(std::move(w));
  }
  ASSERT_TRUE(workloads[1].tensor.spilled());

  MttkrpOptions options;
  expect_batched_matches_solo(
      workloads, options, [] { return sim::make_default_platform(2, 1000.0); });
}

TEST(PlanComposeTest, CpdBatchBitIdenticalToSoloRuns) {
  // The full surface: batched ALS across two tensors must reproduce each
  // solo cp_als bit for bit — factors, lambdas, fits, iteration counts,
  // convergence — while running every iteration as one graph dispatch.
  auto workloads = make_workloads(4);
  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 6;

  std::vector<CpdResult> solo;
  std::size_t most_iterations = 0;
  for (const auto& w : workloads) {
    auto platform = sim::make_default_platform(4, 1000.0);
    solo.push_back(cp_als(platform, w.tensor, options));
    most_iterations = std::max(most_iterations, solo.back().iterations);
  }

  std::vector<const AmpedTensor*> tensors;
  for (const auto& w : workloads) tensors.push_back(&w.tensor);
  auto platform = sim::make_default_platform(4, 1000.0);
  BatchReport report;
  const auto batched = cpd_batch(platform, tensors, options, &report);

  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(batched[i].fit, solo[i].fit) << i;
    EXPECT_EQ(batched[i].iterations, solo[i].iterations) << i;
    EXPECT_EQ(batched[i].converged, solo[i].converged) << i;
    EXPECT_EQ(batched[i].lambda, solo[i].lambda) << i;
    EXPECT_EQ(batched[i].fit_history, solo[i].fit_history) << i;
    for (std::size_t d = 0; d < workloads[i].tensor.num_modes(); ++d) {
      expect_bit_identical(batched[i].factors.factor(d),
                           solo[i].factors.factor(d),
                           "tensor " + std::to_string(i) + " factor " +
                               std::to_string(d));
    }
  }
  EXPECT_GT(report.elided_barriers, 0u);
  EXPECT_EQ(report.graph_dispatches, most_iterations);
}

}  // namespace
}  // namespace amped
