// Graph dispatch, the only batched driver (exec::compose_graph,
// mttkrp_batch, CpdOptions::graph_window): gathers become dependency
// edges for every policy, outputs stay bit-identical to solo runs at any
// tolerance, batch makespans never lose to back-to-back solo runs (and
// strictly win when transfers dominate), iteration i+1 kernels overlap
// iteration i's gather tail, and static chains keep their recorded
// timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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
  EXPECT_TRUE(plan.pipelined);
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

// Dynamic chains compose like static ones: their units bind at
// admission, and both backends produce the same factors.
TEST(ComposeGraphTest, DynamicChainsCompose) {
  const auto workloads = make_workloads(2);
  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});
  for (const auto policy : {SchedulingPolicy::kDynamicQueue,
                            SchedulingPolicy::kDynamicLookahead}) {
    MttkrpOptions options;
    options.policy = policy;
    auto sim_platform = sim::make_default_platform(2, 1000.0);
    std::vector<std::vector<DenseMatrix>> sim_out;
    const auto sim = mttkrp_batch(sim_platform, batch, sim_out, options);
    EXPECT_EQ(sim.graph_dispatches, 1u) << to_string(policy);

    options.backend = exec::ExecBackend::kHostParallel;
    auto host_platform = sim::make_default_platform(2, 1000.0);
    std::vector<std::vector<DenseMatrix>> host_out;
    const auto host = mttkrp_batch(host_platform, batch, host_out, options);
    EXPECT_EQ(host.graph_dispatches, 1u) << to_string(policy);

    for (std::size_t i = 0; i < workloads.size(); ++i) {
      auto solo_platform = sim::make_default_platform(2, 1000.0);
      std::vector<DenseMatrix> solo;
      MttkrpOptions solo_options;
      solo_options.policy = policy;
      mttkrp_all_modes(solo_platform, workloads[i].tensor,
                       workloads[i].factors, solo, solo_options);
      for (std::size_t d = 0; d < solo.size(); ++d) {
        const std::string what = to_string(policy) + " tensor " +
                                 std::to_string(i) + " mode " +
                                 std::to_string(d);
        expect_bit_identical(sim_out[i][d], solo[d], what + " (sim)");
        expect_bit_identical(host_out[i][d], solo[d], what + " (host)");
      }
    }
  }
}

// mttkrp_batch: bit-identical to solo execution, never slower than the
// same workloads run back to back, and every gather reported as an
// attributed edge.
TEST(GraphScheduleTest, BatchBitIdenticalAndNoSlowerThanComposed) {
  const auto workloads = make_workloads(4);
  MttkrpOptions options;

  std::vector<std::vector<DenseMatrix>> solo_out(workloads.size());
  double back_to_back = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    auto platform = sim::make_default_platform(4, 1000.0);
    back_to_back += mttkrp_all_modes(platform, workloads[i].tensor,
                                     workloads[i].factors, solo_out[i],
                                     options)
                        .total_seconds;
  }

  std::vector<BatchWorkload> batch;
  for (const auto& w : workloads) batch.push_back({&w.tensor, &w.factors});

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
  EXPECT_LE(graph.total_seconds, back_to_back * (1.0 + 1e-12))
      << "graph " << graph.total_seconds << " vs back-to-back "
      << back_to_back;

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
// drains, so the graph makespan is strictly below the back-to-back sum.
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
  std::vector<std::vector<DenseMatrix>> solo_out(workloads.size());
  double back_to_back = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    auto platform = make_platform();
    back_to_back += mttkrp_all_modes(platform, workloads[i].tensor,
                                     workloads[i].factors, solo_out[i],
                                     options)
                        .total_seconds;
  }

  auto graph_platform = make_platform();
  std::vector<std::vector<DenseMatrix>> graph_out;
  const auto graph = mttkrp_batch(graph_platform, batch, graph_out, options);

  EXPECT_LT(graph.total_seconds, back_to_back)
      << "graph " << graph.total_seconds << " vs back-to-back "
      << back_to_back;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    for (std::size_t d = 0; d < solo_out[i].size(); ++d) {
      expect_bit_identical(graph_out[i][d], solo_out[i][d],
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

void expect_same_cpd(const CpdResult& batched, const CpdResult& solo,
                     const std::string& what) {
  EXPECT_EQ(batched.iterations, solo.iterations) << what;
  EXPECT_EQ(batched.converged, solo.converged) << what;
  ASSERT_EQ(batched.lambda.size(), solo.lambda.size()) << what;
  EXPECT_EQ(std::memcmp(batched.lambda.data(), solo.lambda.data(),
                        solo.lambda.size() * sizeof(double)),
            0)
      << what << ": lambda differs bitwise";
  ASSERT_EQ(batched.fit_history.size(), solo.fit_history.size()) << what;
  EXPECT_EQ(std::memcmp(batched.fit_history.data(), solo.fit_history.data(),
                        solo.fit_history.size() * sizeof(double)),
            0)
      << what << ": fit_history differs bitwise";
  for (std::size_t d = 0; d < solo.factors.num_modes(); ++d) {
    expect_bit_identical(batched.factors.factor(d), solo.factors.factor(d),
                         what + " factor " + std::to_string(d));
  }
}

// A nonzero tolerance stops each tensor strictly inside a 3-iteration
// window. A stopped tensor's remaining solve host ops return at once, so
// its factors, lambda, fits, iteration count and convergence flag stay
// bit-identical to solo cp_als on both backends, even while the other
// tensor keeps iterating in the same dispatch.
TEST(GraphScheduleTest, CpdWindowStopsInsideWindowWhenToleranceNonzero) {
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto input_a = make_tensor(451, {128, 96, 64}, 10000);
  auto input_b = make_tensor(453, {200, 80, 120}, 12000, {0.4, 0.9, 0.3});
  auto tensor_a = AmpedTensor::build(input_a, build);
  auto tensor_b = AmpedTensor::build(input_b, build);
  const AmpedTensor* tensors[] = {&tensor_a, &tensor_b};

  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 40;
  options.tolerance = 2e-4;
  std::vector<CpdResult> solo;
  std::size_t most_iterations = 0;
  for (const AmpedTensor* t : tensors) {
    auto platform = sim::make_default_platform(2, 1000.0);
    solo.push_back(cp_als(platform, *t, options));
    most_iterations = std::max(most_iterations, solo.back().iterations);
  }
  // Both tensors converge strictly inside the same window, one iteration
  // apart, so the window holds a stopped tensor beside a running one.
  for (std::size_t i = 0; i < solo.size(); ++i) {
    ASSERT_TRUE(solo[i].converged) << "tensor " << i;
    ASSERT_NE(solo[i].iterations % 3, 0u)
        << "tensor " << i << " must converge strictly inside a window ("
        << solo[i].iterations << " iterations)";
  }
  ASSERT_NE(solo[0].iterations, solo[1].iterations);

  options.graph_window = 3;
  for (const auto backend :
       {exec::ExecBackend::kSimulated, exec::ExecBackend::kHostParallel}) {
    options.mttkrp.backend = backend;
    auto platform = sim::make_default_platform(2, 1000.0);
    BatchReport report;
    const auto batched = cpd_batch(platform, tensors, options, &report);
    EXPECT_EQ(report.graph_dispatches, (most_iterations + 2) / 3);
    ASSERT_EQ(batched.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
      expect_same_cpd(batched[i], solo[i],
                      exec::to_string(backend) + " tensor " +
                          std::to_string(i));
    }
  }
}

TEST(GraphScheduleTest, CpdBatchRejectsZeroWindow) {
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto tensor =
      AmpedTensor::build(make_tensor(451, {128, 96, 64}, 10000), build);
  const AmpedTensor* tensors[] = {&tensor};
  CpdOptions options;
  options.rank = 8;
  options.graph_window = 0;
  auto platform = sim::make_default_platform(2, 1000.0);
  try {
    cpd_batch(platform, tensors, options);
    ADD_FAILURE() << "cpd_batch accepted graph_window 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("graph_window"), std::string::npos)
        << e.what();
  }
}

// Every policy runs a graph window: the window dispatches and the factors
// stay bit-identical to solo cp_als.
void expect_cpd_window_runs(CpdOptions options) {
  AmpedBuildOptions build;
  build.num_gpus = 2;
  auto input = make_tensor(451, {128, 96, 64}, 10000);
  auto tensor = AmpedTensor::build(input, build);
  const AmpedTensor* tensors[] = {&tensor};
  options.rank = 8;
  options.max_iterations = 3;
  options.tolerance = 0.0;

  auto p1 = sim::make_default_platform(2, 1000.0);
  const CpdResult solo = cp_als(p1, tensor, options);

  options.graph_window = 2;
  auto p2 = sim::make_default_platform(2, 1000.0);
  BatchReport report;
  const auto window = cpd_batch(p2, tensors, options, &report);
  EXPECT_GT(report.graph_dispatches, 0u);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].fit, solo.fit);
  EXPECT_EQ(window[0].iterations, solo.iterations);
  for (std::size_t d = 0; d < solo.factors.num_modes(); ++d) {
    expect_bit_identical(window[0].factors.factor(d), solo.factors.factor(d),
                         "factor " + std::to_string(d));
  }
}

TEST(GraphScheduleTest, CpdWindowRunsWhenPipelined) {
  CpdOptions options;
  options.mttkrp.pipelined_streaming = true;
  expect_cpd_window_runs(options);
}

TEST(GraphScheduleTest, CpdWindowRunsWhenDynamic) {
  for (const auto policy : {SchedulingPolicy::kDynamicQueue,
                            SchedulingPolicy::kDynamicLookahead}) {
    CpdOptions options;
    options.mttkrp.policy = policy;
    expect_cpd_window_runs(options);
  }
}

// A 0-wide threadblock has zero utilization, which prices every grid at
// +inf. The solo, batch and graph-window paths all lower through
// Scheduler::lower, which rejects it by name.
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
  expect_rejected(
      [&] {
        auto platform = sim::make_default_platform(2, 1000.0);
        std::vector<std::vector<DenseMatrix>> outs;
        mttkrp_batch(platform, batch, outs, options);
      },
      "batch");
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


// Static chains (every chain compose_graph accepted before it learned to
// bind kAnyGpu units) must keep their simulated timeline bit for bit:
// makespan, every per-phase aggregate and every ExecReport field. The
// goldens below were recorded from the graph interpreter as it stood
// before the segment loops were folded into it; the FNV-1a digest covers
// every report field and phase total in a fixed order, and a mismatch
// prints the fresh values in the same hex-float form.
class Fnv {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void add(double v) { add(&v, sizeof v); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const exec::ExecReport& r, const sim::Platform& p) {
  Fnv h;
  h.add(std::uint64_t{r.gather_edges.size()});
  for (const auto& e : r.gather_edges) {
    h.add(std::uint64_t{e.scope});
    h.add(std::uint64_t{e.mode});
    h.add(e.bytes);
    h.add(e.seconds);
    h.add(e.start);
    h.add(e.finish);
  }
  for (const double v : r.scope_kernel_start) h.add(v);
  for (const double v : r.scope_kernel_finish) h.add(v);
  for (const double v : r.per_gpu_compute) h.add(v);
  for (const auto& row : r.scope_gpu_compute) {
    for (const double v : row) h.add(v);
  }
  for (const auto& row : r.scope_owned_rows) {
    for (const std::uint64_t v : row) h.add(v);
  }
  for (const double v :
       {r.wall_seconds, r.wall_spill_fetch, r.wall_h2d, r.wall_d2h,
        r.wall_sync, r.wall_allgather, r.wall_host_op, r.predicted_h2d,
        r.predicted_h2d_fluid}) {
    h.add(v);
  }
  for (const double v : r.per_gpu_predicted_compute) h.add(v);
  const auto agg = p.aggregate_timeline();
  for (std::size_t ph = 0; ph < sim::kNumPhases; ++ph) {
    h.add(agg.total(static_cast<sim::Phase>(ph)));
  }
  for (int g = 0; g < p.num_gpus(); ++g) h.add(p.gpu(g).clock());
  return h.value();
}

struct StaticChainCase {
  const char* name;
  SchedulingPolicy policy;
  bool pipelined;
  bool hetero;        // transfer-bound Ada/A4000 box, else default 2 GPUs
  bool spilled;       // stream every mode copy from disk
  std::size_t iters;  // links per chain = iters * modes
  bool host_ops;      // append a (no-op) host op to every link
  double makespan;    // golden, recorded before the interpreter merge
  std::uint64_t digest;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void run_static_chain_case(const StaticChainCase& c) {
  const int gpus = c.hetero ? 4 : 2;
  AmpedBuildOptions build;
  build.num_gpus = gpus;
  if (c.spilled) build.storage = BuildStorage::kSpilled;
  auto input_a = make_tensor(461, {96, 96, 96}, 8000, {0.3, 0.3, 0.3});
  auto input_b = make_tensor(463, {384, 256, 192}, 30000, {1.1, 0.3, 0.3});
  std::vector<Workload> workloads(2);
  Rng rng_a(462), rng_b(464);
  workloads[0].factors = FactorSet(input_a.dims(), 16, rng_a);
  workloads[0].tensor = AmpedTensor::build(input_a, build);
  workloads[1].factors = FactorSet(input_b.dims(), 16, rng_b);
  workloads[1].tensor = AmpedTensor::build(input_b, build);

  auto platform = [&] {
    sim::PlatformConfig cfg;
    cfg.num_gpus = gpus;
    cfg.workload_scale = 1000.0;
    if (c.hetero) {
      cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                           sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
      cfg.host_aggregate_bandwidth = 24e9;
    }
    return sim::Platform(cfg);
  }();

  MttkrpOptions options;
  options.policy = c.policy;
  options.pipelined_streaming = c.pipelined;
  const auto scheduler = exec::make_scheduler(options);
  std::vector<std::vector<DenseMatrix>> outs(workloads.size());
  std::vector<std::vector<exec::Plan>> chains(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& w = workloads[i];
    for (std::size_t d = 0; d < w.tensor.num_modes(); ++d) {
      outs[i].emplace_back(w.tensor.dims()[d], 16);
    }
    for (std::size_t it = 0; it < c.iters; ++it) {
      for (std::size_t d = 0; d < w.tensor.num_modes(); ++d) {
        const exec::ModeLowerInput in{
            platform, w.tensor, d, w.factors, outs[i][d], options,
            resolve_mttkrp_profile(options, w.tensor, d, platform, 16)};
        exec::Plan p = scheduler->lower(in);
        if (c.host_ops) {
          exec::Task op;
          op.kind = exec::TaskKind::kHostOp;
          op.host_op = [](sim::Platform&) {};
          p.tasks.push_back(std::move(op));
        }
        chains[i].push_back(std::move(p));
      }
    }
  }
  exec::Plan plan = exec::compose_graph(chains);
  const double t0 = platform.makespan();
  const exec::ExecReport report = exec::PlanExecutor(platform).run(plan);
  const double makespan = platform.makespan() - t0;
  EXPECT_EQ(makespan, c.makespan)
      << c.name << ": makespan " << hex(makespan) << " (golden "
      << hex(c.makespan) << ")";
  const std::uint64_t d = digest(report, platform);
  EXPECT_EQ(d, c.digest) << c.name << ": report digest 0x" << std::hex << d
                         << "ull";
}

TEST(GraphGoldenTest, StaticChainsKeepTheirTimelineBitForBit) {
  const StaticChainCase cases[] = {
      {"hetero static-greedy", SchedulingPolicy::kStaticGreedy, false, true,
       false, 1, false, 0x1.0f69e5ba96176p-13,
       0x610fa479cfd257a9ull},
      {"hetero cost-model pipelined", SchedulingPolicy::kCostModel, true,
       true, false, 1, false, 0x1.e3e73a6d5e452p-14,
       0x2595e6e578fc26f1ull},
      {"default contiguous window", SchedulingPolicy::kContiguous, false,
       false, false, 2, true, 0x1.19dc15381c4f5p-12,
       0xb0e458b7e174b1cull},
      {"spilled weighted-static window", SchedulingPolicy::kWeightedStatic,
       false, false, true, 2, true, 0x1.1a4f007c3cc8fp-12,
       0xdddffecadf5ae63dull},
      {"hetero static-greedy window", SchedulingPolicy::kStaticGreedy, false,
       true, false, 2, true, 0x1.0c003abd12e03p-12,
       0x73d905da20182169ull},
  };
  for (const auto& c : cases) run_static_chain_case(c);
}

}  // namespace
}  // namespace amped
