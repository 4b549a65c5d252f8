// Generated-plan differential test of the execution engine: seeded draws
// over every scheduling policy (with and without pipelined streaming),
// 1-8 GPUs (homogeneous or mixed Ada/A4000), 2-5 modes, ranks
// {1, 7, 32, 33}, graph windows {1, 2, 3}, resident or spilled copies,
// one configuration whose mode-copy keys exceed 64 bits (16-byte records
// plus a high-bits table, as full-scale Amazon and Twitch take) and one
// with 33-40-bit keys (8-byte records plus a table, as the Amazon 1/500
// stand-in takes).
// Per configuration:
//  1. factors: cpd_batch on the simulator, cpd_batch on the host backend
//     and solo cp_als per tensor agree byte for byte;
//  2. causality: in the simulator's trace of the same plans, no task
//     starts before every one of its dependencies has finished;
//  3. engines: no engine row of the trace overlaps itself.
// A failure names its seed; the configuration is a pure function of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/batch.hpp"
#include "core/cpd.hpp"
#include "exec/compose.hpp"
#include "exec/scheduler.hpp"
#include "sim/trace.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

constexpr std::uint64_t kBaseSeed = 0x5eed0019;
constexpr int kConfigs = 42;
// Configuration 40 draws 5 modes of 4097-8192 indices: 65-bit keys.
constexpr int kWideKeyConfig = 40;
// The last one draws 3 modes of 2049-8048 indices (36-39-bit keys),
// spilled, on the dynamic queue.
constexpr int kSplitKeyConfig = kConfigs - 1;
constexpr std::size_t kIterations = 2;

const SchedulingPolicy kPolicies[] = {
    SchedulingPolicy::kStaticGreedy,   SchedulingPolicy::kContiguous,
    SchedulingPolicy::kWeightedStatic, SchedulingPolicy::kCostModel,
    SchedulingPolicy::kDynamicQueue,   SchedulingPolicy::kDynamicLookahead};

struct Config {
  std::uint64_t seed = 0;
  SchedulingPolicy policy = SchedulingPolicy::kStaticGreedy;
  bool pipelined = false;
  std::size_t window = 1;
  bool spilled = false;
  int gpus = 1;
  bool hetero = false;
  std::size_t modes = 3;
  std::size_t rank = 7;
  bool wide_keys = false;
  bool split_keys = false;

  std::string describe() const {
    return "seed " + std::to_string(seed) + ": " + to_string(policy) +
           (pipelined ? "+pipelined" : "") + ", window " +
           std::to_string(window) + (spilled ? ", spilled" : ", resident") +
           ", " + std::to_string(gpus) + (hetero ? " mixed" : "") +
           " GPUs, " + std::to_string(modes) + " modes, rank " +
           std::to_string(rank) + (wide_keys ? ", keys over 64 bits" : "") +
           (split_keys ? ", 33-40-bit keys" : "");
  }
};

// Policy, streaming, window and storage sweep with the index; the rest is
// drawn from the seed.
Config draw(int index) {
  Config c;
  c.seed = kBaseSeed + static_cast<std::uint64_t>(index);
  c.policy = kPolicies[index % 6];
  c.pipelined = (index / 6) % 2 == 1;
  c.window = 1 + static_cast<std::size_t>(index % 3);
  c.spilled = (index / 3) % 2 == 1;
  std::mt19937_64 rng(c.seed);
  c.gpus = 1 + static_cast<int>(rng() % 8);
  c.hetero = c.gpus > 1 && rng() % 2 == 0;
  c.modes = 2 + rng() % 4;
  const std::size_t ranks[] = {1, 7, 32, 33};
  c.rank = ranks[rng() % 4];
  c.wide_keys = index == kWideKeyConfig;
  if (c.wide_keys) c.modes = 5;
  c.split_keys = index == kSplitKeyConfig;
  if (c.split_keys) {
    c.modes = 3;
    c.spilled = true;
    c.policy = SchedulingPolicy::kDynamicQueue;
  }
  return c;
}

sim::Platform make_platform(const Config& c) {
  sim::PlatformConfig cfg;
  cfg.num_gpus = c.gpus;
  cfg.workload_scale = 1000.0;
  if (c.hetero) {
    for (int g = 0; g < c.gpus; ++g) {
      cfg.gpu_overrides.push_back(g % 2 == 0 ? sim::rtx6000_ada_spec()
                                             : sim::rtx_a4000_spec());
    }
    cfg.host_aggregate_bandwidth = 6e9 * c.gpus;  // transfer-bound
  }
  return sim::Platform(cfg);
}

std::vector<AmpedTensor> make_tensors(const Config& c) {
  std::mt19937_64 rng(c.seed ^ 0x7e45);
  AmpedBuildOptions build;
  build.num_gpus = c.gpus;
  build.shards_per_gpu = 1 + rng() % 4;
  build.storage = c.spilled ? BuildStorage::kSpilled : BuildStorage::kResident;
  std::vector<AmpedTensor> tensors;
  for (int t = 0; t < 2; ++t) {
    GeneratorOptions opt;
    for (std::size_t d = 0; d < c.modes; ++d) {
      opt.dims.push_back(
          c.wide_keys    ? static_cast<index_t>(4097 + rng() % 4096)
          : c.split_keys ? static_cast<index_t>(2049 + rng() % 6000)
                         : static_cast<index_t>(8 + rng() % 57));
      opt.zipf_exponents.push_back(static_cast<double>(rng() % 13) / 10.0);
    }
    opt.nnz = 600 + rng() % 1400;
    opt.seed = rng();
    tensors.push_back(AmpedTensor::build(generate_random(opt), build));
  }
  return tensors;
}

CpdOptions cpd_options(const Config& c) {
  CpdOptions options;
  options.rank = c.rank;
  options.max_iterations = kIterations;
  options.tolerance = 0.0;
  options.graph_window = c.window;
  options.mttkrp.policy = c.policy;
  options.mttkrp.pipelined_streaming = c.pipelined;
  return options;
}

bool same_factors(const CpdResult& a, const CpdResult& b) {
  if (a.fit != b.fit || a.iterations != b.iterations) return false;
  for (std::size_t d = 0; d < a.factors.num_modes(); ++d) {
    const auto& x = a.factors.factor(d);
    const auto& y = b.factors.factor(d);
    if (x.bytes() != y.bytes() ||
        std::memcmp(x.data().data(), y.data().data(), x.bytes()) != 0) {
      return false;
    }
  }
  return true;
}

// The first plan cpd_batch dispatches, lowered with constant factors: a
// window of w is min(w, kIterations) iterations of every mode per chain
// with a host op on each link. The kernels keep pointers to `options`,
// `factors` and `outs`, which must outlive the plan.
exec::Plan lower_window(
    const Config& c, const MttkrpOptions& options,
    const sim::Platform& platform, const std::vector<AmpedTensor>& tensors,
    const std::vector<FactorSet>& factors,
    std::vector<std::vector<DenseMatrix>>& outs) {
  const auto scheduler = exec::make_scheduler(options);
  auto lower = [&](std::size_t i, std::size_t d) {
    const exec::ModeLowerInput in{
        platform, tensors[i], d, factors[i], outs[i][d], options,
        resolve_mttkrp_profile(options, tensors[i], d, platform, c.rank)};
    return scheduler->lower(in);
  };
  std::vector<std::vector<exec::Plan>> chains(tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    for (std::size_t it = 0; it < std::min(c.window, kIterations); ++it) {
      for (std::size_t d = 0; d < c.modes; ++d) {
        exec::Plan p = lower(i, d);
        exec::Task solve;
        solve.kind = exec::TaskKind::kHostOp;
        solve.host_op = [](sim::Platform&) {};
        p.tasks.push_back(std::move(solve));
        chains[i].push_back(std::move(p));
      }
    }
  }
  return exec::compose_graph(chains);
}

// Runs `plan` traced on the simulator and checks causality and engine
// exclusivity from the trace. Kernel labels are made unique by writing
// each kernel's task id into its (label-only) mode field; H2D and gather
// events carry their scope and range / mode in their labels.
void check_trace(exec::Plan& plan, sim::Platform& platform,
                 const std::string& what) {
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    auto& t = plan.tasks[id];
    if (t.kind == exec::TaskKind::kKernel) {
      t.labelled = true;
      t.mode = id;
    }
  }
  std::map<std::string, std::size_t> by_label;
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    const auto& t = plan.tasks[id];
    if (t.kind == exec::TaskKind::kKernel) by_label[exec::shard_label(t)] = id;
    if (t.kind == exec::TaskKind::kH2D) by_label[exec::h2d_label(t)] = id;
    if (t.kind == exec::TaskKind::kAllGather) {
      by_label["gather-edge scope" + std::to_string(t.scope) + " mode" +
               std::to_string(t.mode)] = id;
    }
  }
  sim::TraceLog trace;
  platform.attach_trace(&trace);
  exec::PlanExecutor(platform).run(plan);
  platform.attach_trace(nullptr);
  ASSERT_EQ(trace.dropped(), 0u) << what;

  // Modelled [start, finish] of every traced task; untraced tasks (fetch,
  // host op, zero-length) are ready no earlier than their deps.
  const double eps = 1e-12;
  std::vector<double> start(plan.tasks.size(), -1.0);
  std::vector<double> finish(plan.tasks.size(), -1.0);
  std::map<std::pair<int, int>, std::vector<std::pair<double, double>>> rows;
  for (const auto& e : trace.events()) {
    rows[{e.device, e.engine}].emplace_back(e.start_s,
                                            e.start_s + e.duration_s);
    const auto it = by_label.find(e.label);
    if (it == by_label.end()) continue;
    start[it->second] = e.start_s;
    finish[it->second] = e.start_s + e.duration_s;
  }
  std::vector<double> ready(plan.tasks.size(), 0.0);
  for (std::size_t id = 0; id < plan.tasks.size(); ++id) {
    for (const std::size_t d : plan.tasks[id].deps) {
      ready[id] = std::max(ready[id], finish[d] >= 0.0 ? finish[d] : ready[d]);
    }
    if (start[id] >= 0.0) {
      EXPECT_GE(start[id], ready[id] - eps)
          << what << ": task " << id << " starts before a dependency ends";
    }
    if (finish[id] < 0.0) finish[id] = std::max(ready[id], start[id]);
  }
  for (auto& [row, spans] : rows) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t k = 1; k < spans.size(); ++k) {
      EXPECT_GE(spans[k].first, spans[k - 1].second - eps)
          << what << ": engine row (" << row.first << "," << row.second
          << ") overlaps itself";
    }
  }
}

class GeneratedPlan : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedPlan, SimHostSoloAgreeAndTraceIsCausal) {
  const Config c = draw(GetParam());
  SCOPED_TRACE(c.describe());
  const auto tensors = make_tensors(c);
  const CpdOptions options = cpd_options(c);
  for (const auto& t : tensors) {
    for (std::size_t d = 0; d < c.modes; ++d) {
      const KeyLayout& layout = *t.mode_copy(d).span().layout;
      ASSERT_EQ(layout.segmented(), c.wide_keys || c.split_keys);
      ASSERT_EQ(layout.record_bytes(), c.wide_keys ? 16u : 8u);
      ASSERT_EQ(t.mode_copy(d).spilled(), c.spilled);
    }
  }

  std::vector<CpdResult> solo;
  for (const auto& t : tensors) {
    auto platform = make_platform(c);
    solo.push_back(cp_als(platform, t, options));
  }
  const AmpedTensor* ptrs[] = {&tensors[0], &tensors[1]};
  for (const auto backend :
       {exec::ExecBackend::kSimulated, exec::ExecBackend::kHostParallel}) {
    CpdOptions batch_options = options;
    batch_options.mttkrp.backend = backend;
    auto platform = make_platform(c);
    BatchReport report;
    const auto batched = cpd_batch(platform, ptrs, batch_options, &report);
    EXPECT_EQ(report.graph_dispatches,
              (kIterations + c.window - 1) / c.window);
    ASSERT_EQ(batched.size(), solo.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
      EXPECT_TRUE(same_factors(batched[i], solo[i]))
          << exec::to_string(backend) << " factors of tensor " << i
          << " differ from solo cp_als";
    }
  }

  auto platform = make_platform(c);
  std::vector<FactorSet> factors;
  std::vector<std::vector<DenseMatrix>> outs(tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    Rng rng(c.seed + i);
    factors.emplace_back(tensors[i].dims(), c.rank, rng);
    for (std::size_t d = 0; d < c.modes; ++d) {
      outs[i].emplace_back(tensors[i].dims()[d], c.rank);
    }
  }
  auto plan =
      lower_window(c, options.mttkrp, platform, tensors, factors, outs);
  check_trace(plan, platform, "window");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPlan,
                         ::testing::Range(0, kConfigs));

}  // namespace
}  // namespace amped
