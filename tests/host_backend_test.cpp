// Differential harness for the host-parallel execution backend
// (src/exec/host_backend.cpp): every scheduling policy, composed
// batches, and spilled-storage runs execute through BOTH PlanExecutor
// backends and must produce memcmp-identical factor outputs — the
// real-concurrency analogue of exec_plan_test's golden checks. Also
// covers the measured-vs-predicted reporting contract and the backend
// parser. This suite runs in the TSan CI lane: real lane threads over
// the ShardStreamer are exactly what that lane exists to check.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "exec/plan.hpp"
#include "exec/scheduler.hpp"
#include "io/memory_budget.hpp"
#include "sim/trace.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

// Real concurrency even on single-core CI runners: the backend's lane
// threads and the streamers' read-ahead must interleave for these tests
// (and the TSan lane) to mean anything.
class HostParallelismEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_host_parallelism(4); }
  void TearDown() override { set_host_parallelism(0); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new HostParallelismEnv);

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

void expect_bit_identical(const DenseMatrix& a, const DenseMatrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.bytes()), 0)
      << what << ": outputs differ bitwise";
}

struct DifferentialRun {
  MttkrpReport sim;
  MttkrpReport host;
};

// Runs the same workload through the simulator and the host backend on
// identically configured platforms and demands memcmp-identical outputs
// for every mode. Returns both reports for timing-contract checks.
DifferentialRun expect_differential(
    const AmpedTensor& tensor, const FactorSet& factors,
    MttkrpOptions options,
    const std::function<sim::Platform()>& make_platform,
    const std::string& what) {
  DifferentialRun run;
  auto sim_platform = make_platform();
  auto host_platform = make_platform();
  std::vector<DenseMatrix> sim_out, host_out;
  options.backend = exec::ExecBackend::kSimulated;
  run.sim = mttkrp_all_modes(sim_platform, tensor, factors, sim_out, options);
  options.backend = exec::ExecBackend::kHostParallel;
  run.host =
      mttkrp_all_modes(host_platform, tensor, factors, host_out, options);

  EXPECT_EQ(sim_out.size(), host_out.size()) << what;
  for (std::size_t d = 0; d < sim_out.size(); ++d) {
    expect_bit_identical(sim_out[d], host_out[d],
                         what + " mode " + std::to_string(d));
  }
  // The host run must not have advanced the simulated clocks.
  EXPECT_EQ(host_platform.makespan(), 0.0) << what;
  return run;
}

std::string policy_label(SchedulingPolicy policy, bool pipelined) {
  return to_string(policy) + (pipelined ? "+pipelined" : "");
}

// Every policy (static ones ± pipelined, both dynamic disciplines,
// cost-model) on homogeneous and heterogeneous platforms.
class HostBackendDifferential
    : public ::testing::TestWithParam<std::pair<SchedulingPolicy, bool>> {};

TEST_P(HostBackendDifferential, BitIdenticalToSimulator) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(301);
  Rng rng(302);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  const auto run = expect_differential(
      tensor, factors, options,
      [] { return sim::make_default_platform(4, 1000.0); },
      policy_label(policy, pipelined));

  // Timing contract: the host report carries measured wall clock (real
  // work takes real time) and the simulator's never does.
  double host_compute = 0.0;
  for (double t : run.host.per_gpu_compute) host_compute += t;
  EXPECT_GT(host_compute, 0.0);
  EXPECT_GT(run.host.total_seconds, 0.0);
  for (const auto& bd : run.host.modes) {
    EXPECT_GT(bd.seconds, 0.0) << "mode " << bd.mode;
    EXPECT_GE(bd.h2d, 0.0) << "mode " << bd.mode;
    EXPECT_GE(bd.sync, 0.0) << "mode " << bd.mode;
  }
}

TEST_P(HostBackendDifferential, BitIdenticalOnHeterogeneousPlatform) {
  const auto [policy, pipelined] = GetParam();
  auto input = make_tensor(303);
  Rng rng(304);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  MttkrpOptions options;
  options.policy = policy;
  options.pipelined_streaming = pipelined;
  expect_differential(tensor, factors, options,
                      [] { return hetero_platform(1000.0); },
                      policy_label(policy, pipelined));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HostBackendDifferential,
    ::testing::Values(
        std::pair{SchedulingPolicy::kStaticGreedy, false},
        std::pair{SchedulingPolicy::kStaticGreedy, true},
        std::pair{SchedulingPolicy::kContiguous, false},
        std::pair{SchedulingPolicy::kContiguous, true},
        std::pair{SchedulingPolicy::kWeightedStatic, false},
        std::pair{SchedulingPolicy::kWeightedStatic, true},
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

TEST(HostBackendTest, PredictedComputeMatchesSimulatorExactly) {
  // The host backend runs the same kernel closures on the same static
  // assignment, collecting their cost-model returns as the predicted
  // column — which must therefore equal the simulator's charged EC
  // seconds to the last bit, per GPU.
  auto input = make_tensor(305);
  Rng rng(306);
  FactorSet factors(input.dims(), 16, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kCostModel}) {
    auto sim_platform = hetero_platform(1000.0);
    auto host_platform = hetero_platform(1000.0);
    MttkrpOptions options;
    options.policy = policy;
    std::vector<DenseMatrix> sim_out, host_out;
    options.backend = exec::ExecBackend::kSimulated;
    const auto sim_report =
        mttkrp_all_modes(sim_platform, tensor, factors, sim_out, options);
    options.backend = exec::ExecBackend::kHostParallel;

    std::vector<double> predicted(4, 0.0);
    for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
      DenseMatrix out(tensor.dims()[d], factors.rank());
      const exec::ModeLowerInput in{
          host_platform, tensor, d, factors, out, options,
          resolve_mttkrp_profile(options, tensor, d, host_platform,
                                 factors.rank())};
      auto plan = exec::make_scheduler(options)->lower(in);
      exec::PlanExecutor executor(host_platform,
                                  exec::ExecBackend::kHostParallel);
      const auto report = executor.run(plan);
      for (std::size_t g = 0; g < 4; ++g) {
        predicted[g] += report.per_gpu_predicted_compute[g];
      }
      expect_bit_identical(sim_out[d], out,
                           to_string(policy) + " mode " + std::to_string(d));
    }
    for (std::size_t g = 0; g < 4; ++g) {
      EXPECT_EQ(predicted[g], sim_report.per_gpu_compute[g])
          << to_string(policy) << " gpu " << g;
    }
  }
}

// Sets the global budget for one scope and restores "unlimited" on every
// exit path, so suites stay order-independent.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::uint64_t limit) {
    io::HostMemoryBudget::global().set_limit(limit);
  }
  ~BudgetGuard() { io::HostMemoryBudget::global().set_limit(0); }
};

TEST(HostBackendTest, SpilledBudgetRunBitIdentical) {
  // The out-of-core path under real concurrency: a memory budget forces
  // the build to spill, then shard payloads stream disk -> host -> lane
  // staging buffers through both backends.
  auto input = make_tensor(307, 20000);
  Rng rng(308);
  FactorSet factors(input.dims(), 8, rng);

  // Below the 3-copy resident footprint but enough for the build to hold
  // one copy (plus stream buffers) at a time: kAuto must choose to spill.
  const std::uint64_t copy_bytes = input.storage_bytes();
  BudgetGuard guard(copy_bytes + copy_bytes / 2);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  build.storage = BuildStorage::kAuto;
  auto tensor = AmpedTensor::build(input, build);
  ASSERT_TRUE(tensor.spilled());

  for (bool pipelined : {false, true}) {
    MttkrpOptions options;
    options.pipelined_streaming = pipelined;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(2, 1000.0); },
                        std::string("spilled") +
                            (pipelined ? "+pipelined" : ""));
  }
  for (auto policy :
       {SchedulingPolicy::kDynamicQueue, SchedulingPolicy::kDynamicLookahead,
        SchedulingPolicy::kCostModel}) {
    MttkrpOptions options;
    options.policy = policy;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(2, 1000.0); },
                        "spilled " + to_string(policy));
  }
}

TEST(HostBackendTest, ComposedBatchBitIdentical) {
  // Composed multi-tensor plans: barrier elision and lane interleaving
  // across scopes must not change a byte on either backend.
  auto input_a = make_tensor(309, 22000);
  GeneratorOptions gb;
  gb.dims = {384, 192, 160};
  gb.nnz = 18000;
  gb.zipf_exponents = {0.6, 0.9, 0.3};
  gb.seed = 310;
  auto input_b = generate_random(gb);
  Rng rng(311);
  FactorSet factors_a(input_a.dims(), 12, rng);
  FactorSet factors_b(input_b.dims(), 12, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor_a = AmpedTensor::build(input_a, build);
  auto tensor_b = AmpedTensor::build(input_b, build);
  const std::vector<BatchWorkload> workloads = {{&tensor_a, &factors_a},
                                                {&tensor_b, &factors_b}};

  for (bool pipelined : {false, true}) {
    MttkrpOptions options;
    options.pipelined_streaming = pipelined;
    const std::string what =
        std::string("batch") + (pipelined ? "+pipelined" : "");

    auto sim_platform = sim::make_default_platform(4, 1000.0);
    std::vector<std::vector<DenseMatrix>> sim_out;
    options.backend = exec::ExecBackend::kSimulated;
    mttkrp_batch(sim_platform, workloads, sim_out, options);

    auto host_platform = sim::make_default_platform(4, 1000.0);
    std::vector<std::vector<DenseMatrix>> host_out;
    options.backend = exec::ExecBackend::kHostParallel;
    const auto host_report =
        mttkrp_batch(host_platform, workloads, host_out, options);

    ASSERT_EQ(sim_out.size(), host_out.size());
    for (std::size_t i = 0; i < sim_out.size(); ++i) {
      ASSERT_EQ(sim_out[i].size(), host_out[i].size());
      for (std::size_t d = 0; d < sim_out[i].size(); ++d) {
        expect_bit_identical(sim_out[i][d], host_out[i][d],
                             what + " workload " + std::to_string(i) +
                                 " mode " + std::to_string(d));
      }
    }
    EXPECT_GT(host_report.total_seconds, 0.0) << what;
    EXPECT_EQ(host_report.graph_dispatches, 1u) << what;
  }
}

TEST(HostBackendTest, CpAlsBitIdentical) {
  // Full CP-ALS through the host backend: factors, weights, fit, and the
  // convergence trajectory all match the simulated run bitwise.
  auto input = make_tensor(312, 15000);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);

  CpdOptions options;
  options.rank = 8;
  options.max_iterations = 3;
  auto sim_platform = sim::make_default_platform(4, 1000.0);
  auto host_platform = sim::make_default_platform(4, 1000.0);
  options.mttkrp.backend = exec::ExecBackend::kSimulated;
  const auto sim_result = cp_als(sim_platform, tensor, options);
  options.mttkrp.backend = exec::ExecBackend::kHostParallel;
  const auto host_result = cp_als(host_platform, tensor, options);

  EXPECT_EQ(sim_result.fit, host_result.fit);
  EXPECT_EQ(sim_result.iterations, host_result.iterations);
  EXPECT_EQ(sim_result.converged, host_result.converged);
  EXPECT_EQ(sim_result.lambda, host_result.lambda);
  EXPECT_EQ(sim_result.fit_history, host_result.fit_history);
  ASSERT_EQ(sim_result.factors.num_modes(), host_result.factors.num_modes());
  for (std::size_t d = 0; d < sim_result.factors.num_modes(); ++d) {
    expect_bit_identical(sim_result.factors.factor(d),
                         host_result.factors.factor(d),
                         "factor " + std::to_string(d));
  }
  // Host time is measured, so it is real and positive.
  EXPECT_GT(host_result.mttkrp_sim_seconds, 0.0);
}

TEST(HostBackendTest, RandomizedDifferentialSweep) {
  // Property sweep with the format_property_test generator shapes: any
  // (mode count, skew, policy) combination is bit-identical across
  // backends. Failure messages carry the seed for offline reproduction.
  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue,
      SchedulingPolicy::kCostModel, SchedulingPolicy::kDynamicLookahead};
  for (std::size_t modes = 2; modes <= 4; ++modes) {
    for (double skew : {0.0, 1.4}) {
      GeneratorOptions opt;
      opt.dims.assign(modes, 0);
      for (std::size_t m = 0; m < modes; ++m) {
        opt.dims[m] = static_cast<index_t>(48 + 37 * m);
      }
      opt.zipf_exponents.assign(modes, skew);
      opt.nnz = 3000;
      opt.seed = 1000 + modes * 10 + static_cast<std::uint64_t>(skew * 10);
      auto input = generate_random(opt);
      Rng rng(opt.seed + 1);
      FactorSet factors(input.dims(), 6, rng);
      AmpedBuildOptions build;
      build.num_gpus = 4;
      build.shards_per_gpu = 4;
      auto tensor = AmpedTensor::build(input, build);

      for (auto policy : policies) {
        MttkrpOptions options;
        options.policy = policy;
        const std::string what =
            "seed=" + std::to_string(opt.seed) +
            " modes=" + std::to_string(modes) +
            " skew=" + std::to_string(skew) + " policy=" + to_string(policy);
        expect_differential(tensor, factors, options,
                            [] { return sim::make_default_platform(4); },
                            what);
      }
      // Numerics stay right end to end, not just consistent: check one
      // policy against the sequential double-precision reference.
      MttkrpOptions options;
      options.backend = exec::ExecBackend::kHostParallel;
      auto platform = sim::make_default_platform(4);
      std::vector<DenseMatrix> outputs;
      mttkrp_all_modes(platform, tensor, factors, outputs, options);
      const auto refs = reference_mttkrp_all_modes(input, factors);
      for (std::size_t d = 0; d < refs.size(); ++d) {
        EXPECT_LT(relative_max_diff(refs[d], outputs[d]), 5e-4)
            << "seed=" << opt.seed << " mode " << d;
      }
    }
  }
}

TEST(HostBackendTest, BackendNamesParseAndRoundTrip) {
  EXPECT_EQ(exec::parse_backend("sim"), exec::ExecBackend::kSimulated);
  EXPECT_EQ(exec::parse_backend("simulated"), exec::ExecBackend::kSimulated);
  EXPECT_EQ(exec::parse_backend("host"), exec::ExecBackend::kHostParallel);
  EXPECT_EQ(exec::parse_backend("host-parallel"),
            exec::ExecBackend::kHostParallel);
  for (auto backend :
       {exec::ExecBackend::kSimulated, exec::ExecBackend::kHostParallel}) {
    EXPECT_EQ(exec::parse_backend(exec::to_string(backend)), backend);
  }
  EXPECT_THROW(exec::parse_backend("cuda"), std::invalid_argument);
  EXPECT_THROW(exec::parse_backend(""), std::invalid_argument);
}

TEST(HostBackendTest, SerialPoolStillBitIdentical) {
  // host_parallelism() == 1 leaves the read-ahead pool one thread (the
  // executor still runs one thread per GPU); outputs and the reporting
  // shape must be unchanged.
  set_host_parallelism(1);
  auto input = make_tensor(313, 12000);
  Rng rng(314);
  FactorSet factors(input.dims(), 8, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  auto tensor = AmpedTensor::build(input, build);
  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue}) {
    MttkrpOptions options;
    options.policy = policy;
    expect_differential(tensor, factors, options,
                        [] { return sim::make_default_platform(4); },
                        "serial " + to_string(policy));
  }
  set_host_parallelism(4);
}

// ---------------------------------------------------------------------------
// Execution order, checked from the host trace's timestamps on hand-built
// plans: the executor's edges (derived phase edges, explicit graph edges,
// and kAnyGpu unit binding) must hold on real threads.

// A kernel that holds its GPU for `ms` milliseconds. Its trace label
// "grid mode0 idx[k,k+1)" names it as kernel k.
exec::Task sleep_kernel(int gpu, index_t k, int ms, std::size_t scope = 0) {
  exec::Task t;
  t.kind = exec::TaskKind::kKernel;
  t.gpu = gpu;
  t.scope = scope;
  t.labelled = true;
  t.index_begin = k;
  t.index_end = k + 1;
  t.kernel = [ms](const exec::ExecContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return 0.0;
  };
  return t;
}

struct Span {
  int device = 0;
  double start = 0.0;
  double finish = 0.0;
};

// Compute events of the trace, keyed by kernel number.
std::map<index_t, Span> kernel_spans(const sim::TraceLog& trace) {
  std::map<index_t, Span> spans;
  for (const auto& e : trace.events()) {
    if (e.phase != sim::Phase::kCompute || e.device < 0) continue;
    const auto k = static_cast<index_t>(
        std::stoul(e.label.substr(e.label.find('[') + 1)));
    EXPECT_EQ(spans.count(k), 0u) << "kernel " << k << " traced twice";
    spans[k] = {e.device, e.start_s, e.start_s + e.duration_s};
  }
  return spans;
}

// Clock reads on either side of a completion edge are ordered; the slack
// only absorbs floating-point rounding of the offsets.
constexpr double kSlack = 1e-9;

exec::ExecReport run_traced_host(sim::Platform& platform, exec::Plan& plan,
                                 sim::TraceLog& trace) {
  platform.attach_trace(&trace);
  return exec::PlanExecutor(platform, exec::ExecBackend::kHostParallel)
      .run(plan);
}

TEST(HostOrderingTest, BarrierSeparatesOverlappingScopes) {
  // Two scopes over overlapping rows of one output, so only the barrier
  // orders them. GPU 0's first kernel is short: without the derived
  // barrier edges its second kernel would start while GPU 1 still runs.
  DenseMatrix out(16, 1);
  exec::Plan plan;
  plan.scopes = {{&out, 0, 10}, {&out, 5, 16}};
  plan.tasks.push_back(sleep_kernel(0, 0, 1));
  plan.tasks.push_back(sleep_kernel(1, 1, 15));
  plan.tasks.push_back(sleep_kernel(2, 2, 5));
  exec::Task barrier;
  barrier.kind = exec::TaskKind::kBarrier;
  plan.tasks.push_back(std::move(barrier));
  plan.tasks.push_back(sleep_kernel(0, 3, 1, 1));
  plan.tasks.push_back(sleep_kernel(1, 4, 1, 1));
  plan.tasks.push_back(sleep_kernel(2, 5, 1, 1));

  auto platform = sim::make_default_platform(4);
  sim::TraceLog trace;
  const auto report = run_traced_host(platform, plan, trace);
  const auto spans = kernel_spans(trace);
  ASSERT_EQ(spans.size(), 6u);
  double before_end = 0.0;
  for (index_t k = 0; k < 3; ++k) {
    before_end = std::max(before_end, spans.at(k).finish);
  }
  for (index_t k = 3; k < 6; ++k) {
    EXPECT_GE(spans.at(k).start + kSlack, before_end) << "kernel " << k;
  }
  // Both scopes report kernel spans, and GPU 0 idled at the barrier.
  ASSERT_EQ(report.scope_kernel_start.size(), 2u);
  EXPECT_LE(report.scope_kernel_finish[0], report.scope_kernel_start[1]);
  EXPECT_GT(report.wall_sync, 0.0);
}

TEST(HostOrderingTest, GraphEdgeCrossesLanesThroughGather) {
  // Kernel (GPU 0) -> gather -> kernel (GPU 1): explicit graph edges, no
  // barrier. GPU 1 has nothing else to run, so only the edges hold it.
  DenseMatrix out(8, 1);
  exec::Plan plan;
  plan.scopes = {{&out, 0, 8}, {&out, 0, 8}};
  plan.tasks.push_back(sleep_kernel(0, 0, 10));
  exec::Task gather;
  gather.kind = exec::TaskKind::kAllGather;
  gather.row_bytes = 4;
  gather.deps = {0};
  plan.tasks.push_back(std::move(gather));
  plan.tasks.push_back(sleep_kernel(1, 1, 1, 1));
  plan.tasks.back().deps = {1};

  auto platform = sim::make_default_platform(2);
  sim::TraceLog trace;
  const auto report = run_traced_host(platform, plan, trace);
  const auto spans = kernel_spans(trace);
  ASSERT_EQ(spans.size(), 2u);
  const sim::TraceEvent* edge = nullptr;
  for (const auto& e : trace.events()) {
    if (e.phase == sim::Phase::kPeerToPeer) edge = &e;
  }
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->label.rfind("gather-edge scope0", 0), 0u) << edge->label;
  EXPECT_GE(edge->start_s + kSlack, spans.at(0).finish);
  EXPECT_GE(spans.at(1).start + kSlack, edge->start_s + edge->duration_s);
  ASSERT_EQ(report.gather_edges.size(), 1u);
}

TEST(HostOrderingTest, AnyGpuUnitsRunOnceWithoutOverlapPerGpu) {
  constexpr int kGpus = 4;
  constexpr index_t kUnits = 24;
  std::vector<std::atomic<int>> runs(kUnits);
  exec::Plan plan;
  for (index_t k = 0; k < kUnits; ++k) {
    auto kernel = sleep_kernel(exec::kAnyGpu, k, 1 + static_cast<int>(k % 3));
    kernel.kernel = [&runs, k, inner = std::move(kernel.kernel)](
                        const exec::ExecContext& ctx) {
      runs[k].fetch_add(1);
      return inner(ctx);
    };
    plan.tasks.push_back(std::move(kernel));
  }
  exec::Task barrier;
  barrier.kind = exec::TaskKind::kBarrier;
  plan.tasks.push_back(std::move(barrier));

  auto platform = sim::make_default_platform(kGpus);
  sim::TraceLog trace;
  run_traced_host(platform, plan, trace);
  for (index_t k = 0; k < kUnits; ++k) {
    EXPECT_EQ(runs[k].load(), 1) << "kernel " << k;
  }
  const auto spans = kernel_spans(trace);
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kUnits));
  std::vector<std::vector<Span>> rows(kGpus);
  for (const auto& [k, span] : spans) {
    ASSERT_GE(span.device, 0);
    ASSERT_LT(span.device, kGpus);
    rows[static_cast<std::size_t>(span.device)].push_back(span);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_GE(row[i].start + kSlack, row[i - 1].finish)
          << "overlap on gpu" << row[i].device;
    }
  }
}

TEST(HostOrderingTest, UnannotatedAnyGpuTransferIsRejected) {
  // A kAnyGpu unit must stage its payload: its lease on the shared
  // stream's slot ends with the H2D, so that the acquire two positions on
  // does not wait for its kernel. The executor refuses the plan up front,
  // naming the task.
  exec::Plan plan;
  plan.scheduler = "hand-built";
  exec::Task h2d;
  h2d.kind = exec::TaskKind::kH2D;
  h2d.gpu = exec::kAnyGpu;
  h2d.transfer_bytes = 64;
  plan.tasks.push_back(std::move(h2d));
  plan.tasks.push_back(sleep_kernel(exec::kAnyGpu, 0, 0));
  plan.tasks.back().deps = {0};

  auto platform = sim::make_default_platform(2);
  try {
    exec::PlanExecutor(platform, exec::ExecBackend::kHostParallel).run(plan);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task 0"), std::string::npos) << what;
    EXPECT_NE(what.find("hand-built"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace amped
