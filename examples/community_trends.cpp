// Social-network analysis scenario: the Reddit-2015 tensor
// (user x subreddit x word, Table 3). Decomposes with CPD and interprets
// each latent component as a "community topic": the subreddits and words
// loading highest on the component. Also prints the per-mode MTTKRP
// breakdown to show where a billion-scale run spends its time.
//
//   ./community_trends [--scale 4000] [--rank 12] [--iters 6]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "tensor/analysis.hpp"
#include "tensor/generator.hpp"
#include "util/cli.hpp"

namespace {

// Indices with the largest factor weight in component r of mode d.
std::vector<std::size_t> top_indices(const amped::DenseMatrix& factor,
                                     std::size_t component, std::size_t k) {
  std::vector<std::pair<float, std::size_t>> scored;
  scored.reserve(factor.rows());
  for (std::size_t i = 0; i < factor.rows(); ++i) {
    scored.emplace_back(factor(i, component), i);
  }
  std::partial_sort(scored.begin(), scored.begin() + std::min(k, scored.size()),
                    scored.end(), std::greater<>());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amped;
  CliArgs args(argc, argv);
  args.require_known_flags({"iters", "rank", "scale"});
  apply_common_flags(args);
  const double scale = args.get_double("scale", 4000.0);
  const auto rank = static_cast<std::size_t>(args.get_int("rank", 12));
  const auto iters = static_cast<std::size_t>(args.get_int("iters", 6));

  std::printf("generating Reddit-2015 profile at 1/%.0f scale...\n", scale);
  const ScaledDataset ds = generate_scaled(reddit_profile(), scale);
  std::printf("  %s (full scale: 4.7B (user, subreddit, word) events)\n",
              ds.tensor.shape_string().c_str());
  std::printf("structure:\n%s", analyze(ds.tensor).to_string().c_str());

  AmpedBuildOptions build;
  build.num_gpus = 4;
  const AmpedTensor tensor = AmpedTensor::build(ds.tensor, build);
  auto platform = sim::make_default_platform(4, scale);

  // One instrumented MTTKRP sweep first: the paper's Fig. 7 view.
  Rng rng(99);
  FactorSet probe(ds.tensor.dims(), rank, rng);
  MttkrpOptions mopt;
  mopt.full_dims = ds.profile.full_dims;
  std::vector<DenseMatrix> outs;
  auto report = mttkrp_all_modes(platform, tensor, probe, outs, mopt);
  std::printf("\nMTTKRP sweep breakdown (simulated, extrapolated to full "
              "scale):\n");
  const char* mode_names[] = {"user", "subreddit", "word"};
  for (const auto& m : report.modes) {
    std::printf("  mode %zu (%-9s): %7.2f s  [h2d %5.2f | compute %5.2f | "
                "gpu-gpu %5.2f | sync %5.2f, GPU-summed]\n",
                m.mode, mode_names[m.mode], m.seconds * scale,
                m.h2d * scale, m.compute * scale, m.p2p * scale,
                m.sync * scale);
  }

  CpdOptions opt;
  opt.rank = rank;
  opt.max_iterations = iters;
  opt.mttkrp.full_dims = ds.profile.full_dims;
  std::printf("\nrunning CPD-ALS (rank %zu, %zu iterations)...\n", rank,
              iters);
  const CpdResult result = cp_als(platform, tensor, opt);
  std::printf("  fit %.4f\n", result.fit);

  // Rank components by weight and show their top subreddits / words.
  std::vector<std::size_t> order(rank);
  for (std::size_t r = 0; r < rank; ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.lambda[a] > result.lambda[b];
  });
  std::printf("\ntop community topics (synthetic ids):\n");
  for (std::size_t c = 0; c < std::min<std::size_t>(3, rank); ++c) {
    const std::size_t r = order[c];
    std::printf("  component %zu (weight %.2f): subreddits [", r,
                result.lambda[r]);
    for (std::size_t s : top_indices(result.factors.factor(1), r, 3)) {
      std::printf(" #%zu", s);
    }
    std::printf(" ], words [");
    for (std::size_t w : top_indices(result.factors.factor(2), r, 3)) {
      std::printf(" #%zu", w);
    }
    std::printf(" ]\n");
  }
  return 0;
}
