// Backend validation report: runs the same MTTKRP plans through the
// host-parallel backend and prints measured wall-clock next to the cost
// model's predicted seconds, per phase, per policy, on a homogeneous and
// a heterogeneous platform.
//
// Both columns come out of ONE host run: the kernel closures perform the
// real EC arithmetic and return the modelled grid seconds, so every
// ExecReport carries (measured, predicted) pairs — see
// exec/host_backend.hpp. The ratio column is the host-machine
// calibration factor: predicted seconds price a simulated GPU, measured
// seconds are this machine's CPU, so the ratio is expected to be far
// from 1 but *stable across phases and policies* when the model's
// relative costs are right.
//
// Plain driver (not Google Benchmark): the value is the table, not a
// timing distribution.
//
//   ./bench_backend_validation [--nnz N] [--rank R] [--threads T]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "exec/backend.hpp"
#include "exec/scheduler.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace amped;

struct PlatformCase {
  std::string name;
  sim::Platform (*make)();
};

sim::Platform homogeneous() { return sim::make_default_platform(4, 1000.0); }

sim::Platform heterogeneous() {
  sim::PlatformConfig cfg;
  cfg.num_gpus = 4;
  cfg.workload_scale = 1000.0;
  cfg.gpu_overrides = {sim::rtx6000_ada_spec(), sim::rtx6000_ada_spec(),
                       sim::rtx_a4000_spec(), sim::rtx_a4000_spec()};
  return sim::Platform(cfg);
}

struct PhaseTotals {
  double wall_compute = 0.0, predicted_compute = 0.0;
  double wall_h2d = 0.0, predicted_h2d = 0.0;
  double wall_fetch = 0.0, wall_sync = 0.0, wall_allgather = 0.0;
  double wall_total = 0.0;
};

void print_phase(const char* policy, const char* phase, double wall,
                 double predicted) {
  if (predicted > 0.0) {
    std::printf("  %-26s %-10s %12.6f s %14.6f s %10.3g\n", policy, phase,
                wall, predicted, wall / predicted);
  } else {
    std::printf("  %-26s %-10s %12.6f s %14s %10s\n", policy, phase, wall,
                "-", "-");
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.require_known_flags({"nnz", "rank"});
  apply_common_flags(args);
  const auto nnz = static_cast<nnz_t>(args.get_int("nnz", 120000));
  const auto rank = static_cast<std::size_t>(args.get_int("rank", 32));
  const int threads = static_cast<int>(args.get_int("threads", 4));
  set_host_parallelism(threads);

  GeneratorOptions gen;
  gen.dims = {768, 512, 384};
  gen.nnz = nnz;
  gen.zipf_exponents = {0.8, 0.6, 0.4};
  gen.seed = 41;
  const auto input = generate_random(gen);
  Rng rng(42);
  FactorSet factors(input.dims(), rank, rng);
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(input, build);

  const PlatformCase platforms[] = {
      {"4x RTX 6000 Ada (homogeneous)", &homogeneous},
      {"2x RTX 6000 Ada + 2x RTX A4000 (heterogeneous)", &heterogeneous},
  };
  const std::pair<SchedulingPolicy, bool> policies[] = {
      {SchedulingPolicy::kStaticGreedy, false},
      {SchedulingPolicy::kStaticGreedy, true},
      {SchedulingPolicy::kWeightedStatic, false},
      {SchedulingPolicy::kCostModel, false},
      {SchedulingPolicy::kDynamicQueue, false},
      {SchedulingPolicy::kDynamicLookahead, false},
  };

  std::printf("backend validation: %s, rank %zu, %d host worker threads\n",
              input.shape_string().c_str(), rank, threads);
  std::printf("predicted = cost-model seconds on the simulated devices; "
              "measured = wall clock of the same kernels on this host\n");

  for (const auto& pc : platforms) {
    std::printf("\n== %s ==\n", pc.name.c_str());
    std::printf("  %-26s %-10s %14s %16s %10s\n", "policy", "phase",
                "measured-wall", "predicted-sim", "ratio");
    for (const auto& [policy, pipelined] : policies) {
      MttkrpOptions options;
      options.policy = policy;
      options.pipelined_streaming = pipelined;
      options.backend = exec::ExecBackend::kHostParallel;
      auto platform = pc.make();

      PhaseTotals t;
      for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
        DenseMatrix out(tensor.dims()[d], factors.rank());
        const exec::ModeLowerInput in{
            platform, tensor, d, factors, out, options,
            resolve_mttkrp_profile(options, tensor, d, platform,
                                   factors.rank())};
        auto plan = exec::make_scheduler(options)->lower(in);
        exec::PlanExecutor executor(platform,
                                    exec::ExecBackend::kHostParallel);
        const auto report = executor.run(plan);
        for (double s : report.per_gpu_compute) t.wall_compute += s;
        for (double s : report.per_gpu_predicted_compute) {
          t.predicted_compute += s;
        }
        t.wall_h2d += report.wall_h2d;
        t.predicted_h2d += report.predicted_h2d;
        t.wall_fetch += report.wall_spill_fetch;
        t.wall_sync += report.wall_sync;
        t.wall_allgather += report.wall_allgather;
        t.wall_total += report.wall_seconds;
      }

      const std::string name =
          to_string(policy) + (pipelined ? "+pipelined" : "");
      print_phase(name.c_str(), "kernel", t.wall_compute,
                  t.predicted_compute);
      print_phase(name.c_str(), "h2d", t.wall_h2d, t.predicted_h2d);
      print_phase(name.c_str(), "fetch", t.wall_fetch, 0.0);
      print_phase(name.c_str(), "sync", t.wall_sync, 0.0);
      print_phase(name.c_str(), "allgather", t.wall_allgather, 0.0);
      print_phase(name.c_str(), "total", t.wall_total, 0.0);
    }
  }

  // Rank-curve calibration: the wall/predicted ratio is the host-machine
  // calibration factor, so its *drift* between a menu rank (single-tile
  // program) and an off-menu rank (multi-tile program) measures how well
  // the tiled cost model tracks the tiled kernels' real relative
  // throughput. |drift - 1| <= 0.15 means estimate_shard_seconds prices
  // an off-menu shard within 15% of measured host-backend wall time,
  // relative to the menu-rank baseline it was calibrated on.
  std::printf("\n== rank-curve calibration (static-greedy, homogeneous) ==\n");
  std::printf("  %-8s %14s %16s %10s\n", "rank", "measured-wall",
              "predicted-sim", "ratio");
  double ratios[2] = {0.0, 0.0};
  // Anchor at the nearest single-tile menu rank (64) so the comparison
  // is a local linearization: both ranks sit in the same cache regime on
  // both machines, and the drift isolates what the tile decomposition
  // adds rather than how differently the two memory systems scale from
  // rank 32 to rank 100.
  const std::size_t cal_ranks[2] = {64, 100};
  for (int c = 0; c < 2; ++c) {
    Rng cal_rng(42);
    FactorSet cal_factors(input.dims(), cal_ranks[c], cal_rng);
    MttkrpOptions options;
    options.policy = SchedulingPolicy::kStaticGreedy;
    options.backend = exec::ExecBackend::kHostParallel;
    // Best of 5 repetitions: wall time on a shared machine carries
    // scheduling noise the predicted column does not, and the min is
    // the standard estimator for the undisturbed run.
    double wall = 0.0, predicted = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      auto platform = homogeneous();
      double rep_wall = 0.0, rep_predicted = 0.0;
      for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
        DenseMatrix out(tensor.dims()[d], cal_factors.rank());
        const exec::ModeLowerInput in{
            platform, tensor, d, cal_factors, out, options,
            resolve_mttkrp_profile(options, tensor, d, platform,
                                   cal_factors.rank())};
        auto plan = exec::make_scheduler(options)->lower(in);
        exec::PlanExecutor executor(platform,
                                    exec::ExecBackend::kHostParallel);
        const auto report = executor.run(plan);
        for (double s : report.per_gpu_compute) rep_wall += s;
        for (double s : report.per_gpu_predicted_compute) {
          rep_predicted += s;
        }
      }
      if (rep == 0 || rep_wall < wall) wall = rep_wall;
      predicted = rep_predicted;  // deterministic, identical every rep
    }
    ratios[c] = predicted > 0.0 ? wall / predicted : 0.0;
    std::printf("  %-8zu %12.6f s %14.6f s %10.3g\n", cal_ranks[c], wall,
                predicted, ratios[c]);
  }
  if (ratios[0] > 0.0 && ratios[1] > 0.0) {
    const double drift = ratios[1] / ratios[0];
    std::printf("  off-menu/menu ratio drift: %.3f (|drift-1| <= 0.15 "
                "passes)\n", drift);
  }
  // Fluid host-link calibration: calibrate the model's two bandwidth
  // knobs to THIS machine (single-thread memcpy rate = lane bandwidth,
  // 4-thread aggregate memcpy rate = host aggregate), then check that the
  // fluid prediction of the staged H2D copies — each priced at the lane
  // count actually streaming when it ran — lands within 15% of the
  // measured staging wall time. The static per-GPU share prices every
  // copy as if all 4 lanes always stream, so on a run whose lanes drift
  // apart it must overshoot; the fluid column is the fix.
  std::printf("\n== fluid host-link calibration (static-greedy, 4 lanes) ==\n");
  // The calibration copy mimics what staging does: read shard payloads
  // the lane has not touched recently (cold source) into a small reused
  // device buffer (hot destination). Each thread walks 1 MB chunks of a
  // 64 MB source into a fixed 1 MB destination; hot-src/hot-dst memcpy
  // would overprice the lanes, 64 MB cold-everything streams would
  // underprice them.
  auto copy_rate = [](int nthreads) {
    const std::size_t chunk = 1ull << 20;
    const std::size_t chunks = 64;
    const int walks = 4;
    std::vector<std::vector<char>> src(nthreads), dst(nthreads);
    for (int i = 0; i < nthreads; ++i) {
      src[i].assign(chunk * chunks, 1);
      dst[i].assign(chunk, 0);
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (int i = 0; i < nthreads; ++i) {
      workers.emplace_back([&, i] {
        for (int w = 0; w < walks; ++w) {
          for (std::size_t c = 0; c < chunks; ++c) {
            std::memcpy(dst[i].data(), src[i].data() + c * chunk, chunk);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    const double el =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return static_cast<double>(nthreads) * walks *
           static_cast<double>(chunk * chunks) / el;
  };
  const double lane_bw = copy_rate(1);
  const double agg_bw = copy_rate(4);
  std::printf("  memcpy calibration: lane %.2f GB/s, 4-thread aggregate "
              "%.2f GB/s\n", lane_bw / 1e9, agg_bw / 1e9);
  {
    sim::PlatformConfig cfg;
    cfg.num_gpus = 4;
    cfg.workload_scale = 1000.0;
    cfg.host_link = {lane_bw, 0.0};
    cfg.host_aggregate_bandwidth = agg_bw;
    MttkrpOptions options;
    options.policy = SchedulingPolicy::kStaticGreedy;
    options.backend = exec::ExecBackend::kHostParallel;
    double wall = 0.0, fluid = 0.0, fixed = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      sim::Platform platform(cfg);
      double rep_wall = 0.0, rep_fluid = 0.0, rep_static = 0.0;
      for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
        DenseMatrix out(tensor.dims()[d], factors.rank());
        const exec::ModeLowerInput in{
            platform, tensor, d, factors, out, options,
            resolve_mttkrp_profile(options, tensor, d, platform,
                                   factors.rank())};
        auto plan = exec::make_scheduler(options)->lower(in);
        exec::PlanExecutor executor(platform,
                                    exec::ExecBackend::kHostParallel);
        const auto report = executor.run(plan);
        rep_wall += report.wall_h2d;
        rep_fluid += report.predicted_h2d_fluid;
        rep_static += report.predicted_h2d;
      }
      if (rep == 0 || rep_wall < wall) {
        wall = rep_wall;
        fluid = rep_fluid;  // lane sampling varies with the rep's timing:
        fixed = rep_static;  // keep the prediction of the selected rep
      }
    }
    std::printf("  %-18s %12.6f s\n", "measured h2d", wall);
    std::printf("  %-18s %12.6f s  ratio %.3f\n", "static prediction",
                fixed, fixed > 0.0 ? wall / fixed : 0.0);
    std::printf("  %-18s %12.6f s  ratio %.3f\n", "fluid prediction",
                fluid, fluid > 0.0 ? wall / fluid : 0.0);
    if (fluid > 0.0) {
      const double drift = wall / fluid;
      std::printf("  fluid drift: %.3f (|drift-1| <= 0.15 passes)\n",
                  drift);
    }
  }
  set_host_parallelism(0);
  return 0;
}
