// Batched multi-tensor MTTKRP (exec/compose.hpp, core/batch.hpp): the
// graph dispatch of N Table-3 workloads on one platform versus running
// them back to back, under IDENTICAL options (same cost model, same
// policy). The batch elides the per-plan barriers (the workloads'
// row-ownership scopes are disjoint) and turns each all-gather into an
// edge only its own workload waits on, so shards of one tensor fill GPU
// lanes another leaves idle. The compute bound is max_g(A_g + B_g) vs
// max_g(A_g) + max_g(B_g): coarse shards, stragglers and modes with fewer
// shards than GPUs add imbalance slack on top of the gather overlap. Both
// regimes are measured (shards_per_gpu 24 vs 2), plus the bit-identity
// check every run performs.
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>

#include "bench_common.hpp"
#include "core/amped_tensor.hpp"
#include "core/batch.hpp"

namespace {

using namespace amped;
using namespace amped::bench;

struct PairResult {
  double back_to_back = 0.0;
  double graph = 0.0;  // the batch's graph dispatch
};

std::map<std::string, PairResult>& results() {
  static std::map<std::string, PairResult> r;
  return r;
}

const std::vector<std::pair<std::string, std::string>>& pairs() {
  static const std::vector<std::pair<std::string, std::string>> p = {
      {"amazon", "reddit"},
      {"patents", "twitch"},
      {"amazon", "patents"},
  };
  return p;
}

// Fine = the default balanced configuration (no imbalance slack by the
// bound above); coarse = few, large shards where one straggler parks the
// other GPUs at the solo barrier and the batch fills them.
const std::vector<std::pair<std::string, std::size_t>>& granularities() {
  static const std::vector<std::pair<std::string, std::size_t>> g = {
      {"fine24", 24},
      {"coarse2", 2},
  };
  return g;
}

const std::vector<std::pair<std::string, SchedulingPolicy>>& policies() {
  static const std::vector<std::pair<std::string, SchedulingPolicy>> p = {
      {"static-greedy", SchedulingPolicy::kStaticGreedy},
      {"dynamic-queue", SchedulingPolicy::kDynamicQueue},
      {"dynamic-lookahead", SchedulingPolicy::kDynamicLookahead},
  };
  return p;
}

void run_pair(benchmark::State& state, const std::string& a,
              const std::string& b, const std::string& policy_name,
              SchedulingPolicy policy, std::size_t shards_per_gpu) {
  const auto& ds_a = dataset(a);
  const auto& ds_b = dataset(b);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.shards_per_gpu = shards_per_gpu;
  auto tensor_a = AmpedTensor::build(ds_a.tensor, build);
  auto tensor_b = AmpedTensor::build(ds_b.tensor, build);
  auto factors_a = make_factors(ds_a);
  auto factors_b = make_factors(ds_b);
  // One options set, identical for the baseline and the batch, so the
  // reported saving isolates batching (barrier elision, lane fill-in,
  // gather overlap) and never a kernel-profile difference.
  // Workload-specific full_dims would price the two runs on different
  // rooflines.
  MttkrpOptions opt;
  opt.policy = policy;

  PairResult result;
  for (auto _ : state) {
    // Back to back: two solo sweeps on one platform (the batch's fair
    // baseline — same device clocks, same all-gathers).
    std::vector<DenseMatrix> solo_a, solo_b;
    {
      auto platform = make_platform(4);
      double sum = 0.0;
      sum += mttkrp_all_modes(platform, tensor_a, factors_a, solo_a, opt)
                 .total_seconds;
      sum += mttkrp_all_modes(platform, tensor_b, factors_b, solo_b, opt)
                 .total_seconds;
      result.back_to_back = extrapolate(sum);
    }
    // The whole sweep as one plan whose gathers are edges, so tensor A's
    // mode d+1 overlaps tensor B's mode-d tail (every policy: dynamic
    // units bind to a GPU when the shared queue admits them).
    {
      auto platform = make_platform(4);
      const BatchWorkload workloads[] = {{&tensor_a, &factors_a},
                                         {&tensor_b, &factors_b}};
      std::vector<std::vector<DenseMatrix>> outputs;
      auto report = mttkrp_batch(platform, workloads, outputs, opt);
      result.graph = extrapolate(report.total_seconds);

      // Batching must never change the arithmetic: the baseline solo
      // sweeps double as the bit-identity reference. (Dynamic placement
      // depends on device clocks, so only the static policies promise
      // bitwise equality; the homogeneous bench platform keeps ISP
      // geometry identical across GPUs, so it holds here for all three.)
      for (std::size_t d = 0; d < solo_a.size(); ++d) {
        if (std::memcmp(solo_a[d].data().data(),
                        outputs[0][d].data().data(),
                        solo_a[d].bytes()) != 0) {
          state.SkipWithError("batched output diverged from solo run");
          return;
        }
      }
    }
  }
  results()[a + "+" + b + "/" + policy_name] = result;
  state.counters["back_to_back_s"] = result.back_to_back;
  state.counters["graph_s"] = result.graph;
  state.counters["saving_pct"] =
      (1.0 - result.graph / result.back_to_back) * 100.0;
}

// The gather-as-edge acceptance pair: a transfer-bound heterogeneous
// batch (narrow host aggregate, mixed GPUs, one small + one large
// tensor), under each policy of the sweep. Back to back, the small
// tensor's modes never overlap the large one's; in the batch the gather
// edge lets the small tensor's next mode stream while the large one
// drains.
void run_graph_hetero(benchmark::State& state, const std::string& a,
                      const std::string& b, const std::string& policy_name,
                      SchedulingPolicy policy) {
  const auto& ds_a = dataset(a);
  const auto& ds_b = dataset(b);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.shards_per_gpu = 8;
  auto tensor_a = AmpedTensor::build(ds_a.tensor, build);
  auto tensor_b = AmpedTensor::build(ds_b.tensor, build);
  auto factors_a = make_factors(ds_a);
  auto factors_b = make_factors(ds_b);
  auto make_hetero = [] {
    sim::PlatformConfig cfg;
    cfg.num_gpus = 4;
    cfg.workload_scale = bench_scale();
    cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                         sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
    cfg.host_aggregate_bandwidth = 24e9;  // 6 GB/s per lane: transfer-bound
    return sim::Platform(cfg);
  };
  MttkrpOptions opt;
  opt.policy = policy;

  PairResult result;
  for (auto _ : state) {
    {
      auto platform = make_hetero();
      std::vector<DenseMatrix> solo_a, solo_b;
      double sum = 0.0;
      sum += mttkrp_all_modes(platform, tensor_a, factors_a, solo_a, opt)
                 .total_seconds;
      sum += mttkrp_all_modes(platform, tensor_b, factors_b, solo_b, opt)
                 .total_seconds;
      result.back_to_back = extrapolate(sum);
    }
    {
      const BatchWorkload workloads[] = {{&tensor_a, &factors_a},
                                         {&tensor_b, &factors_b}};
      auto platform = make_hetero();
      std::vector<std::vector<DenseMatrix>> outputs;
      result.graph = extrapolate(
          mttkrp_batch(platform, workloads, outputs, opt).total_seconds);
    }
  }
  results()[a + "+" + b + "/hetero-transfer-bound/" + policy_name] = result;
  state.counters["back_to_back_s"] = result.back_to_back;
  state.counters["graph_s"] = result.graph;
  state.counters["saving_pct"] =
      (1.0 - result.graph / result.back_to_back) * 100.0;
}

void register_all() {
  for (const auto& [grain_name, shards_per_gpu] : granularities()) {
    for (const auto& [a, b] : pairs()) {
      for (const auto& [policy_name, policy] : policies()) {
        const std::string name = "batched_mttkrp/" + a + "+" + b + "/" +
                                 grain_name + "/" + policy_name;
        const std::string key = grain_name + "/" + policy_name;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [a, b, key, policy, shards_per_gpu](benchmark::State& s) {
              run_pair(s, a, b, key, policy, shards_per_gpu);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
  // The static-greedy row keeps its historical name; the dynamic rows
  // are suffixed with their policy.
  for (const auto& [policy_name, policy] : policies()) {
    std::string name =
        "batched_mttkrp_graph/amazon+patents/hetero_transfer_bound";
    if (policy != SchedulingPolicy::kStaticGreedy) name += "/" + policy_name;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [policy_name, policy](benchmark::State& s) {
          run_graph_hetero(s, "amazon", "patents", policy_name, policy);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

void print_summary() {
  std::printf("\n=== Batched multi-tensor MTTKRP: graph dispatch vs "
              "back-to-back (4 GPUs, 2-tensor batches, identical options "
              "both runs) ===\n");
  for (const auto& [key, r] : results()) {
    print_row("batch", key, "back-to-back", r.back_to_back, "s");
    print_row("batch", key, "graph-scheduled", r.graph, "s");
    print_row("batch", key, "  saving",
              (1.0 - r.graph / r.back_to_back) * 100.0, "%");
  }
  std::printf("\nshape: the batch saves the imbalance slack "
              "(max_g(A_g + B_g) <= max_g A_g + max_g B_g) plus the gather "
              "overlap, and under the static policies also the copy/compute "
              "overlap every graph dispatch gets (solo static runs stream "
              "sequentially); the dynamic-lookahead rows, whose solo runs "
              "already overlap, isolate the batching itself. Outputs stay "
              "bit-identical either way.\n");
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
