// Quickstart: decompose a synthetic sparse tensor with CPD-ALS running
// its MTTKRP on a simulated 4-GPU AMPED platform.
//
//   ./quickstart [--gpus 4] [--rank 16] [--iters 20] [--nnz 200000]
//
// Walks the full public API surface: generate -> preprocess (build the
// per-mode sharded copies) -> cp_als -> inspect fit and simulated timing.
#include <cstdio>

#include "core/cpd.hpp"
#include "tensor/generator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace amped;
  CliArgs args(argc, argv);
  args.require_known_flags({"gpus", "iters", "nnz", "rank"});
  apply_common_flags(args);
  const int gpus = static_cast<int>(args.get_int("gpus", 4));
  const auto rank = static_cast<std::size_t>(args.get_int("rank", 16));
  const auto iters = static_cast<std::size_t>(args.get_int("iters", 20));
  const auto nnz = static_cast<nnz_t>(args.get_int("nnz", 200000));

  // 1. A synthetic 3-mode sparse tensor with mildly skewed index use.
  GeneratorOptions gen;
  gen.dims = {4096, 2048, 1024};
  gen.nnz = nnz;
  gen.zipf_exponents = {0.6, 0.8, 0.8};
  gen.seed = 7;
  const CooTensor tensor = generate_random(gen);
  std::printf("tensor: %s\n", tensor.shape_string().c_str());

  // 2. Preprocess into the AMPED execution format: one output-sorted,
  //    sharded copy per mode (paper §3).
  AmpedBuildOptions build;
  build.num_gpus = gpus;
  PreprocessStats prep;
  const AmpedTensor amped = AmpedTensor::build(tensor, build, &prep);
  std::printf("preprocessing: %zu bytes of shard copies, %.4f modelled "
              "host-seconds (%.2fs wall)\n",
              prep.bytes_built, prep.host_seconds, prep.wall_seconds);

  // 3. CPD-ALS on a simulated single-node multi-GPU platform (RTX 6000
  //    Ada x gpus, PCIe links, GPUDirect P2P ring).
  auto platform = sim::make_default_platform(gpus);
  CpdOptions opt;
  opt.rank = rank;
  opt.max_iterations = iters;
  const CpdResult result = cp_als(platform, amped, opt);

  std::printf("\nCPD rank-%zu on %d simulated GPU(s):\n", rank, gpus);
  std::printf("  fit            : %.4f after %zu iteration(s)%s\n",
              result.fit, result.iterations,
              result.converged ? " (converged)" : "");
  std::printf("  MTTKRP sim time: %.4f s total, %.4f s per iteration\n",
              result.mttkrp_sim_seconds,
              result.mttkrp_sim_seconds /
                  static_cast<double>(result.iterations));
  std::printf("  lambda[0..3]   : ");
  for (std::size_t r = 0; r < std::min<std::size_t>(4, rank); ++r) {
    std::printf("%.3f ", result.lambda[r]);
  }
  std::printf("\n\nDone. Try --gpus 1 vs --gpus 4 to see the multi-GPU "
              "speedup in the simulated MTTKRP time.\n");
  return 0;
}
