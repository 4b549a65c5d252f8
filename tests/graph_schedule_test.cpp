// Whole-ALS graph scheduling (exec::compose_graph, MttkrpOptions::
// graph_schedule, CpdOptions::graph_window): gathers become dependency
// edges, outputs stay bit-identical to solo runs, graph makespans never
// lose to phase-barrier composition (and strictly win when transfers
// dominate), and iteration i+1 kernels overlap iteration i's gather tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/compose.hpp"
#include "exec/scheduler.hpp"
#include "tensor/generator.hpp"

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
    auto input = make_tensor(401, {512, 256, 256}, 40000);
    Rng rng(402);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    out.push_back(std::move(w));
  }
  {
    Workload w;
    auto input = make_tensor(403, {300, 500, 128}, 30000, {0.4, 0.9, 0.3});
    Rng rng(404);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    out.push_back(std::move(w));
  }
  return out;
}

TEST(ComposeGraphTest, EdgesReplaceBarriersAndDepsPointAtProducers) {
  auto input = make_tensor(411, {256, 128, 128}, 20000);
  Rng rng(412);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(2, 1000.0);

  MttkrpOptions options;
  const auto scheduler = exec::make_scheduler(options);
  std::vector<DenseMatrix> outs;
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    outs.emplace_back(input.dim(d), 8);
  }
  std::vector<std::vector<exec::Plan>> chains(1);
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    const exec::ModeLowerInput in{
        platform, tensor, d, factors, outs[d], options,
        resolve_mttkrp_profile(options, tensor, d, platform, 8)};
    chains[0].push_back(scheduler->lower(in));
  }

  exec::ComposeInfo info;
  exec::Plan plan = exec::compose_graph(chains, &info);
  EXPECT_TRUE(plan.graph);
  EXPECT_EQ(info.elided_barriers, tensor.num_modes());
  ASSERT_EQ(info.scope_chain_link.size(), tensor.num_modes());
  for (std::size_t s = 0; s < info.scope_chain_link.size(); ++s) {
    EXPECT_EQ(info.scope_chain_link[s].first, 0u);
    EXPECT_EQ(info.scope_chain_link[s].second, s);
  }

  std::size_t gathers = 0;
  std::size_t prev_tail = 0;
  bool saw_tail = false;
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    const auto& t = plan.tasks[id];
    ASSERT_NE(t.kind, exec::TaskKind::kBarrier) << "task " << id;
    for (std::size_t dep : t.deps) ASSERT_LT(dep, id) << "task " << id;
    if (t.kind == exec::TaskKind::kAllGather) {
      ++gathers;
      // The gather depends on its own link's kernels only.
      ASSERT_FALSE(t.deps.empty());
      for (std::size_t dep : t.deps) {
        EXPECT_EQ(plan.tasks[dep].kind, exec::TaskKind::kKernel);
        EXPECT_EQ(plan.tasks[dep].scope, t.scope);
      }
      prev_tail = id;
      saw_tail = true;
    } else if (t.kind == exec::TaskKind::kKernel && saw_tail) {
      // Later links' kernels chain off the previous link's tail.
      EXPECT_NE(std::find(t.deps.begin(), t.deps.end(), prev_tail),
                t.deps.end())
          << "kernel " << id << " missing edge to tail " << prev_tail;
    }
  }
  EXPECT_EQ(gathers, tensor.num_modes());
}

TEST(ComposeGraphTest, DynamicChainsThrow) {
  auto input = make_tensor(421, {128, 64, 64}, 5000);
  Rng rng(422);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(2, 1000.0);

  MttkrpOptions options;
  options.policy = SchedulingPolicy::kDynamicQueue;
  DenseMatrix out(input.dim(0), 8);
  const exec::ModeLowerInput in{
      platform, tensor, 0, factors, out, options,
      resolve_mttkrp_profile(options, tensor, 0, platform, 8)};
  std::vector<std::vector<exec::Plan>> chains(1);
  chains[0].push_back(exec::make_scheduler(options)->lower(in));
  EXPECT_THROW(exec::compose_graph(chains), std::invalid_argument);
}

// Graph-scheduled mttkrp_batch: bit-identical to solo execution, never
// slower than phase-barrier composition, and every gather reported as an
// attributed edge.
TEST(GraphScheduleTest, BatchBitIdenticalAndNoSlowerThanComposed) {
  const auto workloads = make_workloads(4);
  MttkrpOptions options;

  std::vector<std::vector<DenseMatrix>> solo_out(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    auto platform = sim::make_default_platform(4, 1000.0);
    mttkrp_all_modes(platform, workloads[i].tensor, workloads[i].factors,
                     solo_out[i], options);
  }

  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});

  auto composed_platform = sim::make_default_platform(4, 1000.0);
  std::vector<std::vector<DenseMatrix>> composed_out;
  const auto composed =
      mttkrp_batch(composed_platform, batch, composed_out, options);

  options.graph_schedule = true;
  auto graph_platform = sim::make_default_platform(4, 1000.0);
  std::vector<std::vector<DenseMatrix>> graph_out;
  const auto graph = mttkrp_batch(graph_platform, batch, graph_out, options);

  EXPECT_EQ(graph.graph_dispatches, 1u);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (std::size_t d = 0; d < solo_out[i].size(); ++d) {
      expect_bit_identical(graph_out[i][d], solo_out[i][d],
                           "tensor " + std::to_string(i) + " mode " +
                               std::to_string(d));
    }
  }
  EXPECT_LE(graph.total_seconds, composed.total_seconds * (1.0 + 1e-12))
      << "graph " << graph.total_seconds << " vs composed "
      << composed.total_seconds;

  // One attributed gather edge per (workload, mode).
  std::size_t expected_edges = 0;
  for (const auto& w : workloads) expected_edges += w.tensor.num_modes();
  EXPECT_EQ(graph.gather_edges.size(), expected_edges);
  for (const auto& e : graph.gather_edges) {
    EXPECT_GT(e.bytes, 0u);
    EXPECT_GE(e.finish, e.start);
  }
}

// On a transfer-bound heterogeneous pair the gather edge must buy real
// wall clock: the fast tensor's next mode streams while the slow one
// drains, so the graph makespan is strictly below the composed baseline.
TEST(GraphScheduleTest, GraphStrictlyBeatsComposedOnTransferBoundHetero) {
  AmpedBuildOptions build;
  build.num_gpus = 4;
  std::vector<Workload> workloads;
  {
    Workload w;  // small and fast: finishes each mode early
    auto input = make_tensor(431, {96, 96, 96}, 8000, {0.3, 0.3, 0.3});
    Rng rng(432);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    workloads.push_back(std::move(w));
  }
  {
    Workload w;  // large and slow: its mode tail is the overlap window
    auto input = make_tensor(433, {512, 384, 256}, 60000, {1.1, 0.3, 0.3});
    Rng rng(434);
    w.factors = FactorSet(input.dims(), 16, rng);
    w.tensor = AmpedTensor::build(input, build);
    workloads.push_back(std::move(w));
  }
  auto make_platform = [] {
    sim::PlatformConfig cfg;
    cfg.num_gpus = 4;
    cfg.workload_scale = 1000.0;
    cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                         sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
    cfg.host_aggregate_bandwidth = 24e9;  // 6 GB/s per GPU: transfer-bound
    return sim::Platform(cfg);
  };
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});

  MttkrpOptions options;
  auto composed_platform = make_platform();
  std::vector<std::vector<DenseMatrix>> composed_out;
  const auto composed =
      mttkrp_batch(composed_platform, batch, composed_out, options);

  options.graph_schedule = true;
  auto graph_platform = make_platform();
  std::vector<std::vector<DenseMatrix>> graph_out;
  const auto graph = mttkrp_batch(graph_platform, batch, graph_out, options);

  EXPECT_LT(graph.total_seconds, composed.total_seconds)
      << "graph " << graph.total_seconds << " vs composed "
      << composed.total_seconds;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (std::size_t d = 0; d < composed_out[i].size(); ++d) {
      expect_bit_identical(graph_out[i][d], composed_out[i][d],
                           "tensor " + std::to_string(i) + " mode " +
                               std::to_string(d));
    }
  }
}

// The host backend runs the same graph plan with real threads; factors
// must be memcmp-identical to the simulated graph run.
TEST(GraphScheduleTest, HostBackendGraphMatchesSimulated) {
  const auto workloads = make_workloads(2);
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});

  MttkrpOptions options;
  options.graph_schedule = true;

  auto sim_platform = sim::make_default_platform(2, 1000.0);
  std::vector<std::vector<DenseMatrix>> sim_out;
  mttkrp_batch(sim_platform, batch, sim_out, options);

  options.backend = exec::ExecBackend::kHostParallel;
  auto host_platform = sim::make_default_platform(2, 1000.0);
  std::vector<std::vector<DenseMatrix>> host_out;
  const auto host = mttkrp_batch(host_platform, batch, host_out, options);
  EXPECT_EQ(host.graph_dispatches, 1u);

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (std::size_t d = 0; d < sim_out[i].size(); ++d) {
      expect_bit_identical(host_out[i][d], sim_out[i][d],
                           "tensor " + std::to_string(i) + " mode " +
                               std::to_string(d));
    }
  }
}

// Whole-ALS windows: factors and fits stay bit-identical to solo cp_als,
// and the timeline proves cross-iteration overlap — some iteration-1
// mode-0 kernel span starts before iteration 0's last gather edge lands.
TEST(GraphScheduleTest, CpdWindowBitIdenticalWithCrossIterationOverlap) {
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto input_a = make_tensor(441, {96, 96, 96}, 8000, {0.3, 0.3, 0.3});
  auto input_b = make_tensor(443, {512, 384, 256}, 60000, {1.1, 0.3, 0.3});
  auto tensor_a = AmpedTensor::build(input_a, build);
  auto tensor_b = AmpedTensor::build(input_b, build);
  const AmpedTensor* tensors[] = {&tensor_a, &tensor_b};

  CpdOptions options;
  options.rank = 16;
  options.max_iterations = 2;
  options.tolerance = 0.0;  // statically known iteration count
  auto make_platform = [] {
    sim::PlatformConfig cfg;
    cfg.num_gpus = 4;
    cfg.workload_scale = 1000.0;
    cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                         sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
    cfg.host_aggregate_bandwidth = 24e9;
    return sim::Platform(cfg);
  };

  std::vector<CpdResult> solo;
  for (const AmpedTensor* t : tensors) {
    auto platform = make_platform();
    solo.push_back(cp_als(platform, *t, options));
  }

  options.graph_window = 2;
  auto platform = make_platform();
  BatchReport report;
  const auto batched = cpd_batch(platform, tensors, options, &report);
  EXPECT_EQ(report.graph_dispatches, 1u);
  EXPECT_TRUE(report.graph_fallback.empty()) << report.graph_fallback;

  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(batched[i].iterations, solo[i].iterations) << "tensor " << i;
    EXPECT_EQ(batched[i].fit, solo[i].fit) << "tensor " << i;
    for (std::size_t d = 0; d < solo[i].factors.num_modes(); ++d) {
      expect_bit_identical(batched[i].factors.factor(d),
                           solo[i].factors.factor(d),
                           "tensor " + std::to_string(i) + " factor " +
                               std::to_string(d));
    }
  }

  // Overlap: iteration 1 kernels of the fast tensor start before the last
  // iteration-0 gather edge (the slow tensor's) finishes — time a
  // phase-barrier schedule would have idled away.
  double last_iter0_gather = 0.0;
  for (const auto& e : report.gather_edges) {
    if (e.iteration == 0) {
      last_iter0_gather = std::max(last_iter0_gather, e.finish);
    }
  }
  ASSERT_GT(last_iter0_gather, 0.0);
  double first_iter1_kernel = -1.0;
  for (const auto& s : report.kernel_spans) {
    if (s.iteration == 1 && s.mode == 0 &&
        (first_iter1_kernel < 0.0 || s.start < first_iter1_kernel)) {
      first_iter1_kernel = s.start;
    }
  }
  ASSERT_GE(first_iter1_kernel, 0.0) << "no iteration-1 kernel span";
  EXPECT_LT(first_iter1_kernel, last_iter0_gather)
      << "iteration 1 should start inside iteration 0's gather tail";
}

// A graph window the options cannot honour: cpd_batch must fall back to
// the legacy composed path, still match it exactly, and name the unmet
// condition in BatchReport::graph_fallback (a run without a window
// reports no fallback).
void expect_cpd_window_falls_back(CpdOptions options,
                                  const std::string& reason) {
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto input = make_tensor(451, {128, 96, 64}, 10000);
  auto tensor = AmpedTensor::build(input, build);
  const AmpedTensor* tensors[] = {&tensor};

  options.rank = 8;
  options.max_iterations = 3;

  auto p1 = sim::make_default_platform(2, 1000.0);
  BatchReport legacy_report;
  const auto legacy = cpd_batch(p1, tensors, options, &legacy_report);
  EXPECT_TRUE(legacy_report.graph_fallback.empty());

  options.graph_window = 2;
  auto p2 = sim::make_default_platform(2, 1000.0);
  BatchReport report;
  const auto fallback = cpd_batch(p2, tensors, options, &report);
  EXPECT_EQ(report.graph_dispatches, 0u);
  EXPECT_NE(report.graph_fallback.find(reason), std::string::npos)
      << "graph_fallback: '" << report.graph_fallback << "'";
  ASSERT_EQ(fallback.size(), legacy.size());
  EXPECT_EQ(fallback[0].fit, legacy[0].fit);
  EXPECT_EQ(fallback[0].iterations, legacy[0].iterations);
  for (std::size_t d = 0; d < legacy[0].factors.num_modes(); ++d) {
    expect_bit_identical(fallback[0].factors.factor(d),
                         legacy[0].factors.factor(d),
                         "factor " + std::to_string(d));
  }
}

// graph_window with a nonzero tolerance cannot know the iteration count
// statically.
TEST(GraphScheduleTest, CpdWindowFallsBackWhenToleranceNonzero) {
  CpdOptions options;  // default tolerance is nonzero
  ASSERT_NE(options.tolerance, 0.0);
  expect_cpd_window_falls_back(options, "nonzero tolerance");
}

TEST(GraphScheduleTest, CpdWindowFallsBackWhenPipelined) {
  CpdOptions options;
  options.tolerance = 0.0;
  options.mttkrp.pipelined_streaming = true;
  expect_cpd_window_falls_back(options, "pipelined policy");
}

TEST(GraphScheduleTest, CpdWindowFallsBackWhenDynamic) {
  for (const auto policy : {SchedulingPolicy::kDynamicQueue,
                            SchedulingPolicy::kDynamicLookahead}) {
    CpdOptions options;
    options.tolerance = 0.0;
    options.mttkrp.policy = policy;
    expect_cpd_window_falls_back(options,
                                 "dynamic policy " + to_string(policy));
  }
}

// mttkrp_batch's graph_schedule reports the same way.
TEST(GraphScheduleTest, BatchGraphScheduleNamesFallback) {
  const auto workloads = make_workloads(2);
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});
  MttkrpOptions options;
  options.graph_schedule = true;
  {
    auto platform = sim::make_default_platform(2, 1000.0);
    std::vector<std::vector<DenseMatrix>> outs;
    const auto report = mttkrp_batch(platform, batch, outs, options);
    EXPECT_EQ(report.graph_dispatches, 1u);
    EXPECT_TRUE(report.graph_fallback.empty()) << report.graph_fallback;
  }
  options.policy = SchedulingPolicy::kDynamicQueue;
  auto platform = sim::make_default_platform(2, 1000.0);
  std::vector<std::vector<DenseMatrix>> outs;
  const auto report = mttkrp_batch(platform, batch, outs, options);
  EXPECT_EQ(report.graph_dispatches, 0u);
  EXPECT_NE(report.graph_fallback.find("dynamic policy dynamic-queue"),
            std::string::npos)
      << report.graph_fallback;
}

// A 0-wide threadblock has zero utilization, which prices every grid at
// +inf. The solo, composed-batch, graph-batch and graph-window paths all
// lower through Scheduler::lower, which rejects it by name.
TEST(GraphScheduleTest, ZeroBlockWidthRejectedOnEveryPath) {
  const auto workloads = make_workloads(2);
  auto expect_rejected = [](const std::function<void()>& run,
                            const std::string& path) {
    try {
      run();
      ADD_FAILURE() << path << " accepted block_width 0";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("block_width"), std::string::npos)
          << path << ": " << e.what();
    }
  };
  MttkrpOptions options;
  options.block_width = 0;
  expect_rejected(
      [&] {
        auto platform = sim::make_default_platform(2, 1000.0);
        std::vector<DenseMatrix> out;
        mttkrp_all_modes(platform, workloads[0].tensor, workloads[0].factors,
                         out, options);
      },
      "solo mttkrp");
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});
  for (const bool graph : {false, true}) {
    options.graph_schedule = graph;
    expect_rejected(
        [&] {
          auto platform = sim::make_default_platform(2, 1000.0);
          std::vector<std::vector<DenseMatrix>> outs;
          mttkrp_batch(platform, batch, outs, options);
        },
        graph ? "graph-scheduled batch" : "composed batch");
  }
  CpdOptions cpd;
  cpd.rank = 16;
  cpd.max_iterations = 2;
  cpd.tolerance = 0.0;
  cpd.graph_window = 2;
  cpd.mttkrp.block_width = 0;
  const AmpedTensor* tensors[] = {&workloads[0].tensor, &workloads[1].tensor};
  expect_rejected(
      [&] {
        auto platform = sim::make_default_platform(2, 1000.0);
        cpd_batch(platform, tensors, cpd);
      },
      "graph window");
}

}  // namespace
}  // namespace amped
