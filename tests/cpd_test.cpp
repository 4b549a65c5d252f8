#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/cpd.hpp"
#include "exec/backend.hpp"
#include "tensor/generator.hpp"

namespace amped {
namespace {

// Builds a dense-ish low-rank tensor from known factors so ALS has an
// exact solution: X(i,j,k) = sum_r A(i,r) B(j,r) C(k,r).
CooTensor low_rank_tensor(std::size_t rank, std::uint64_t seed) {
  const std::vector<index_t> dims{12, 10, 8};
  Rng rng(seed);
  FactorSet truth(dims, rank, rng);

  CooTensor t(dims);
  std::array<index_t, 3> c{};
  for (index_t i = 0; i < dims[0]; ++i) {
    for (index_t j = 0; j < dims[1]; ++j) {
      for (index_t k = 0; k < dims[2]; ++k) {
        double v = 0.0;
        for (std::size_t r = 0; r < rank; ++r) {
          v += static_cast<double>(truth.factor(0)(i, r)) *
               truth.factor(1)(j, r) * truth.factor(2)(k, r);
        }
        c = {i, j, k};
        t.push_back(std::span<const index_t>(c.data(), 3),
                    static_cast<value_t>(v));
      }
    }
  }
  return t;
}

TEST(CpdTest, RecoversLowRankTensor) {
  auto input = low_rank_tensor(3, 21);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(4);

  CpdOptions opt;
  opt.rank = 8;  // over-parameterised: fit should go very high
  opt.max_iterations = 40;
  opt.tolerance = 1e-7;
  auto result = cp_als(platform, tensor, opt);

  EXPECT_GT(result.fit, 0.99) << "ALS failed to recover a rank-3 tensor";
  EXPECT_GT(result.iterations, 1u);
  EXPECT_GT(result.mttkrp_sim_seconds, 0.0);
}

TEST(CpdTest, FitHistoryMonotoneAfterWarmup) {
  // Exact-rank problem: ALS fit is monotone up to float32 noise. (With an
  // over-parameterised rank, CP degeneracy legitimately makes the fit
  // oscillate, so that case is not asserted here.)
  auto input = low_rank_tensor(2, 22);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 2;
  opt.max_iterations = 15;
  opt.tolerance = 0.0;  // run all iterations
  auto result = cp_als(platform, tensor, opt);

  ASSERT_GE(result.fit_history.size(), 5u);
  for (std::size_t i = 2; i < result.fit_history.size(); ++i) {
    EXPECT_GE(result.fit_history[i], result.fit_history[i - 1] - 1e-2);
  }
  EXPECT_GT(result.fit, 0.95);
}

TEST(CpdTest, ConvergesAndStops) {
  auto input = low_rank_tensor(2, 23);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 4;
  opt.max_iterations = 50;
  opt.tolerance = 1e-4;
  auto result = cp_als(platform, tensor, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 50u);
}

TEST(CpdTest, LambdaPositiveAndFactorsNormalised) {
  auto input = low_rank_tensor(3, 24);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);

  CpdOptions opt;
  opt.rank = 4;
  opt.max_iterations = 8;
  auto result = cp_als(platform, tensor, opt);

  for (double l : result.lambda) EXPECT_GT(l, 0.0);
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t r = 0; r < opt.rank; ++r) {
      double norm = 0.0;
      const auto& f = result.factors.factor(d);
      for (std::size_t i = 0; i < f.rows(); ++i) {
        norm += static_cast<double>(f(i, r)) * f(i, r);
      }
      EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-3)
          << "mode " << d << " column " << r;
    }
  }
}

TEST(CpdTest, SparseRandomTensorFitsPartially) {
  GeneratorOptions gopt;
  gopt.dims = {60, 50, 40};
  gopt.nnz = 3000;
  gopt.seed = 25;
  gopt.coalesce_duplicates = true;
  auto input = generate_random(gopt);
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(4);

  CpdOptions opt;
  opt.rank = 8;
  opt.max_iterations = 10;
  auto result = cp_als(platform, tensor, opt);
  // Random data is not low-rank; fit must be finite and above the
  // trivial zero-model baseline.
  EXPECT_GT(result.fit, 0.0);
  EXPECT_LT(result.fit, 1.0);
}

// CholeskyTest.RidgeRescuesSingularMatrix's rank-1 gram, reached through
// cp_als: two length-1 modes leave each normalised factor a single row of
// +-1 entries, so the third mode's normal-equation matrix (the Hadamard
// product of their grams) is all +-1 and rank 1. The solve regularises,
// and the result must report it rather than only logging it.
TEST(CpdTest, SingularGramRegularisationSurfacesInResult) {
  CooTensor input(std::vector<index_t>{1, 1, 40});
  for (index_t k = 0; k < 40; ++k) {
    const std::array<index_t, 3> c{0, 0, k};
    input.push_back(std::span<const index_t>(c.data(), 3),
                    static_cast<value_t>(1 + k % 3));
  }
  auto tensor = AmpedTensor::build(input, AmpedBuildOptions{});
  auto platform = sim::make_default_platform(2);
  CpdOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  opt.tolerance = 0.0;
  const auto result = cp_als(platform, tensor, opt);
  EXPECT_GT(result.regularized_solves, 0u);
  EXPECT_GT(result.max_ridge, 0.0);
  for (value_t v : result.factors.factor(2).data()) {
    ASSERT_TRUE(std::isfinite(v));
  }

  // A well-conditioned run reports no regularisation at all.
  auto healthy = AmpedTensor::build(low_rank_tensor(3, 23),
                                    AmpedBuildOptions{});
  opt.rank = 3;
  const auto clean = cp_als(platform, healthy, opt);
  EXPECT_EQ(clean.regularized_solves, 0u);
  EXPECT_EQ(clean.max_ridge, 0.0);
}

// Degenerate inputs through the whole ALS loop, on both backends. Each
// run either keeps a finite fit or throws an error naming the mode and
// the iteration where it went bad, and the simulated and host runs agree
// bit for bit either way.
struct DegenerateRun {
  std::string error;  // empty when the run completed
  CpdResult result;
};

DegenerateRun run_degenerate(const CooTensor& input, std::size_t rank,
                             exec::ExecBackend backend) {
  AmpedBuildOptions build;
  build.num_gpus = 2;
  const auto tensor = AmpedTensor::build(input, build);
  auto platform = sim::make_default_platform(build.num_gpus);
  CpdOptions opt;
  opt.rank = rank;
  opt.max_iterations = 4;
  opt.tolerance = 0.0;
  opt.mttkrp.backend = backend;
  DegenerateRun run;
  try {
    run.result = cp_als(platform, tensor, opt);
  } catch (const std::runtime_error& e) {
    run.error = e.what();
  }
  return run;
}

// Returns the simulated run.
DegenerateRun expect_degenerate_run_sound(const CooTensor& input,
                                          std::size_t rank) {
  DegenerateRun sim =
      run_degenerate(input, rank, exec::ExecBackend::kSimulated);
  const DegenerateRun host =
      run_degenerate(input, rank, exec::ExecBackend::kHostParallel);
  EXPECT_EQ(sim.error, host.error);
  if (!sim.error.empty()) {
    EXPECT_NE(sim.error.find("mode"), std::string::npos) << sim.error;
    EXPECT_NE(sim.error.find("iteration"), std::string::npos) << sim.error;
    return sim;
  }
  EXPECT_TRUE(host.error.empty()) << host.error;
  EXPECT_TRUE(std::isfinite(sim.result.fit));
  EXPECT_EQ(sim.result.fit, host.result.fit);
  EXPECT_EQ(sim.result.lambda, host.result.lambda);
  for (std::size_t d = 0; d < input.num_modes() && host.error.empty(); ++d) {
    const DenseMatrix& a = sim.result.factors.factor(d);
    const DenseMatrix& b = host.result.factors.factor(d);
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(), a.bytes()), 0)
        << "mode " << d << " factors differ between sim and host";
    EXPECT_TRUE(std::all_of(a.data().begin(), a.data().end(),
                            [](value_t v) { return std::isfinite(v); }))
        << "mode " << d;
  }
  return sim;
}

TEST(CpdDegenerateTest, SingleNonzero) {
  CooTensor input(std::vector<index_t>{5, 4, 3});
  const std::array<index_t, 3> c{1, 2, 0};
  input.push_back(std::span<const index_t>(c.data(), 3), 2.5f);
  expect_degenerate_run_sound(input, 4);
}

// Index 0 of every mode (a slice per mode) holds no nonzero: those factor
// rows solve to zero.
TEST(CpdDegenerateTest, EmptySliceInEveryMode) {
  GeneratorOptions gen;
  gen.dims = {40, 30, 20};
  gen.nnz = 3000;
  gen.seed = 11;
  const CooTensor full = generate_random(gen);
  CooTensor input(gen.dims);
  std::array<index_t, 3> c{};
  for (nnz_t n = 0; n < full.nnz(); ++n) {
    full.coords_of(n, c);
    if (c[0] == 0 || c[1] == 0 || c[2] == 0) continue;
    input.push_back(std::span<const index_t>(c.data(), 3), full.values()[n]);
  }
  ASSERT_LT(input.nnz(), full.nnz());
  expect_degenerate_run_sound(input, 8);
}

// Rank 32 over a 4-row and a 5-row mode: their grams have rank at most 4
// and 5, so the third mode's normal-equation matrix (their Hadamard
// product, rank at most 20) is singular and the ridge path runs.
TEST(CpdDegenerateTest, RankAboveModeLength) {
  GeneratorOptions gen;
  gen.dims = {4, 5, 60};
  gen.nnz = 1000;
  gen.seed = 12;
  const DegenerateRun run =
      expect_degenerate_run_sound(generate_random(gen), 32);
  ASSERT_TRUE(run.error.empty()) << run.error;
  EXPECT_GT(run.result.regularized_solves, 0u);
}

TEST(CpdTest, TensorNormSq) {
  CooTensor t({2, 2});
  const std::array<index_t, 2> a{0, 0}, b{1, 1};
  t.push_back(std::span<const index_t>(a.data(), 2), 3.0f);
  t.push_back(std::span<const index_t>(b.data(), 2), 4.0f);
  EXPECT_DOUBLE_EQ(tensor_norm_sq(t), 25.0);
}

}  // namespace
}  // namespace amped
