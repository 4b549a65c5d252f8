// Recommender-system scenario: the Amazon reviews tensor
// (user x item x word, Table 3) at a configurable scale. Decomposes with
// CPD and then uses the item factor matrix the way a recommender would:
// cosine similarity in latent space to find items related to a query item.
//
//   ./recommender [--scale 4000] [--rank 16] [--iters 8] [--topk 5]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/cpd.hpp"
#include "tensor/generator.hpp"
#include "util/cli.hpp"

namespace {

double cosine(std::span<const amped::value_t> a,
              std::span<const amped::value_t> b) {
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amped;
  CliArgs args(argc, argv);
  args.require_known_flags({"iters", "rank", "scale", "topk"});
  apply_common_flags(args);
  const double scale = args.get_double("scale", 4000.0);
  const auto rank = static_cast<std::size_t>(args.get_int("rank", 16));
  const auto iters = static_cast<std::size_t>(args.get_int("iters", 8));
  const auto topk = static_cast<std::size_t>(args.get_int("topk", 5));

  std::printf("generating Amazon profile at 1/%.0f scale...\n", scale);
  const ScaledDataset ds = generate_scaled(amazon_profile(), scale);
  std::printf("  %s (full scale: 1.7B reviews)\n",
              ds.tensor.shape_string().c_str());

  AmpedBuildOptions build;
  build.num_gpus = 4;
  const AmpedTensor tensor = AmpedTensor::build(ds.tensor, build);

  auto platform = sim::make_default_platform(4, scale);
  CpdOptions opt;
  opt.rank = rank;
  opt.max_iterations = iters;
  opt.mttkrp.full_dims = ds.profile.full_dims;
  std::printf("running CPD-ALS (rank %zu, %zu iterations, 4 simulated "
              "GPUs)...\n",
              rank, iters);
  const CpdResult result = cp_als(platform, tensor, opt);
  std::printf("  fit %.4f; simulated MTTKRP time %.3f s (extrapolated "
              "full-scale: %.1f s)\n",
              result.fit, result.mttkrp_sim_seconds,
              result.mttkrp_sim_seconds * scale);

  // Mode 1 is the item mode; rows of its factor matrix are item
  // embeddings. Rank the most similar items to the busiest item.
  const DenseMatrix& items = result.factors.factor(1);
  std::vector<nnz_t> item_counts(items.rows(), 0);
  for (index_t i : ds.tensor.indices(1)) ++item_counts[i];
  const std::size_t query = static_cast<std::size_t>(
      std::max_element(item_counts.begin(), item_counts.end()) -
      item_counts.begin());

  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t i = 0; i < items.rows(); ++i) {
    if (i == query || item_counts[i] == 0) continue;
    scored.emplace_back(cosine(items.row(query), items.row(i)), i);
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(topk, scored.size()),
                    scored.end(), std::greater<>());

  std::printf("\nitems most similar to item #%zu (%llu reviews) in latent "
              "space:\n",
              query, static_cast<unsigned long long>(item_counts[query]));
  for (std::size_t k = 0; k < std::min(topk, scored.size()); ++k) {
    std::printf("  item #%-6zu cosine %.3f (%llu reviews)\n",
                scored[k].second, scored[k].first,
                static_cast<unsigned long long>(
                    item_counts[scored[k].second]));
  }
  return 0;
}
