#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/cpd.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "tensor/generator.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

TEST(BlasTest, GramOfIdentityLikeMatrix) {
  DenseMatrix a(3, 2);
  a(0, 0) = 1;
  a(1, 1) = 2;
  a(2, 0) = 3;
  const auto g = linalg::gram(a);
  EXPECT_FLOAT_EQ(g(0, 0), 10.0f);  // 1 + 9
  EXPECT_FLOAT_EQ(g(1, 1), 4.0f);
  EXPECT_FLOAT_EQ(g(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(g(1, 0), g(0, 1));  // symmetry
}

TEST(BlasTest, GramMatchesMatmulTranspose) {
  Rng rng(4);
  DenseMatrix a(20, 5);
  a.fill_random(rng);
  const auto g = linalg::gram(a);
  // Compare against explicit A^T A.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double expect = 0;
      for (std::size_t k = 0; k < 20; ++k) {
        expect += static_cast<double>(a(k, i)) * a(k, j);
      }
      EXPECT_NEAR(g(i, j), expect, 1e-3);
    }
  }
}

TEST(BlasTest, HadamardElementwise) {
  DenseMatrix a(2, 2, 3.0f), b(2, 2, 2.0f);
  b(0, 1) = -1.0f;
  const auto c = linalg::hadamard(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(c(0, 1), -3.0f);
}

TEST(BlasTest, MatmulKnownProduct) {
  DenseMatrix a(2, 3), b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = static_cast<value_t>(v++);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) b(i, j) = static_cast<value_t>(v++);
  }
  const auto c = linalg::matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(BlasTest, ColumnOpsAndDot) {
  DenseMatrix a(3, 2, 1.0f);
  for (std::size_t i = 0; i < 3; ++i) a(i, 1) = 2.0f;
  std::vector<double> norms(2);
  EXPECT_TRUE(linalg::normalize_columns(a, norms));
  EXPECT_NEAR(norms[0], std::sqrt(3.0), 1e-6);
  EXPECT_NEAR(norms[1], 2.0 * std::sqrt(3.0), 1e-6);
  EXPECT_FLOAT_EQ(a(1, 0), a(1, 1));  // both columns now unit-norm
  EXPECT_NEAR(a(1, 0), 1.0 / std::sqrt(3.0), 1e-6);
  DenseMatrix b(3, 2, 1.0f);
  EXPECT_NEAR(linalg::dot(a, b), 2.0 * std::sqrt(3.0), 1e-5);
}

TEST(BlasTest, NormalizeColumnsKeepsDeadColumnsAndFlagsNonFinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3.0f;
  a(1, 0) = 4.0f;  // column 1 stays all-zero: a dead component
  std::vector<double> norms(2);
  EXPECT_TRUE(linalg::normalize_columns(a, norms));
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 1.0);
  EXPECT_FLOAT_EQ(a(1, 1), 0.0f);
  a(0, 1) = std::numeric_limits<value_t>::infinity();
  EXPECT_FALSE(linalg::normalize_columns(a, norms));
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  // M = L L^T for L = [[2,0],[1,3]] -> M = [[4,2],[2,10]].
  DenseMatrix m(2, 2);
  m(0, 0) = 4;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 10;
  auto l = linalg::cholesky(m);
  ASSERT_TRUE(l.has_value());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-6);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-6);
  EXPECT_NEAR((*l)(1, 1), 3.0, 1e-6);
}

TEST(CholeskyTest, RejectsIndefinite) {
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 5;
  m(1, 0) = 5;
  m(1, 1) = 1;  // eigenvalues 6, -4
  EXPECT_FALSE(linalg::cholesky(m).has_value());
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  DenseMatrix m(2, 2);
  m(0, 0) = 4;
  m(0, 1) = 2;
  m(1, 0) = 2;
  m(1, 1) = 10;
  auto l = linalg::cholesky(m);
  ASSERT_TRUE(l.has_value());
  // b = M * [1, 2]^T = [8, 22].
  DenseMatrix b(1, 2);
  b(0, 0) = 8.0f;
  b(0, 1) = 22.0f;
  EXPECT_EQ(linalg::solve_normal_equations(m, b, b), 0.0);  // in place
  EXPECT_NEAR(b(0, 0), 1.0, 1e-5);
  EXPECT_NEAR(b(0, 1), 2.0, 1e-5);
}

TEST(CholeskyTest, SolveNormalEquationsMultiRow) {
  Rng rng(8);
  DenseMatrix a(50, 4);
  a.fill_random(rng, 0.1f, 1.0f);
  const auto m = linalg::gram(a);  // SPD with overwhelming probability

  DenseMatrix x_true(3, 4);
  x_true.fill_random(rng, -1.0f, 1.0f);
  // rhs = x_true * M (row-wise: rhs_i = M x_i since M symmetric).
  const DenseMatrix rhs = linalg::matmul(x_true, m);
  DenseMatrix x(3, 4);
  EXPECT_EQ(linalg::solve_normal_equations(m, rhs, x), 0.0);
  EXPECT_LT(DenseMatrix::max_abs_diff(x, x_true), 1e-2);
}

TEST(CholeskyTest, RidgeRescuesSingularMatrix) {
  // Rank-1 Gram: singular, solve must still return something finite.
  DenseMatrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 1;
  DenseMatrix rhs(1, 2);
  rhs(0, 0) = 1;
  rhs(0, 1) = 1;
  EXPECT_GT(linalg::solve_normal_equations(m, rhs, rhs), 0.0);
  EXPECT_TRUE(std::isfinite(rhs(0, 0)));
  EXPECT_TRUE(std::isfinite(rhs(0, 1)));
}

// ---------------------------------------------------------------------------
// Bit identity of the blocked, vectorised, pool-parallel ALS kernels
// against the plain scalar loops they replaced. The oracles below are
// those loops verbatim; every comparison is memcmp, never a tolerance.

namespace oracle {

DenseMatrix gram(const DenseMatrix& a) {
  const std::size_t r = a.cols();
  DenseMatrix g(r, r);
  for (std::size_t row = 0; row < a.rows(); ++row) {
    const auto ar = a.row(row);
    for (std::size_t i = 0; i < r; ++i) {
      const double ai = ar[i];
      for (std::size_t j = i; j < r; ++j) {
        g(i, j) += static_cast<value_t>(ai * ar[j]);
      }
    }
  }
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

void cholesky_solve_inplace(const DenseMatrix& l, std::span<value_t> b) {
  const std::size_t n = l.rows();
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= static_cast<double>(l(i, k)) * b[k];
    }
    b[i] = static_cast<value_t>(sum / l(i, i));
  }
  // Backward substitution L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) {
      sum -= static_cast<double>(l(k, ii)) * b[k];
    }
    b[ii] = static_cast<value_t>(sum / l(ii, ii));
  }
}

void scale_column(DenseMatrix& a, std::size_t c, value_t s) {
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, c) *= s;
}

double column_norm(const DenseMatrix& a, std::size_t c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    acc += static_cast<double>(a(i, c)) * a(i, c);
  }
  return std::sqrt(acc);
}

// The column-normalise step of the former AlsState::update_mode.
void normalize(DenseMatrix& updated, std::vector<double>& lambda) {
  for (std::size_t c = 0; c < updated.cols(); ++c) {
    double norm = column_norm(updated, c);
    if (norm < 1e-30) norm = 1.0;  // dead component; leave as-is
    lambda[c] = norm;
    scale_column(updated, c, static_cast<value_t>(1.0 / norm));
  }
}

}  // namespace oracle

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.bytes() == 0 ||
          std::memcmp(a.data().data(), b.data().data(), a.bytes()) == 0);
}

// Ranks on and off the power-of-two menu: the gram's whole 16-column
// panels (16 to 128), narrow tails of 1 to 15 columns (3, 20, 33, 100,
// 200) and ranks below one panel. Row counts around the solve's 64-row
// block and the gram's 128-row block (empty, one row, a partial block
// each side of a full one) up to two Twitch-1/1000-sized modes.
constexpr std::size_t kRanks[] = {1,  3,  4,  8,   16,  20,  32,
                                  33, 48, 64, 96, 100, 128, 200};
constexpr std::size_t kRows[] = {0, 1, 63, 65, 127, 128, 129, 6200, 15500};

// A well-conditioned R x R normal-equation matrix: the gram of a tall
// random factor, as ALS builds it.
DenseMatrix spd_matrix(std::size_t rank, Rng& rng) {
  DenseMatrix a(2 * rank + 8, rank);
  a.fill_random(rng, -1.0f, 1.0f);
  return oracle::gram(a);
}

class AlsKernelBitIdentity : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { set_host_parallelism(0); }
};

TEST_P(AlsKernelBitIdentity, SolveMatchesScalarSubstitution) {
  const std::size_t rank = GetParam();
  Rng rng(100 + rank);
  const DenseMatrix m = spd_matrix(rank, rng);
  const auto l = linalg::cholesky(m);
  ASSERT_TRUE(l.has_value());
  for (std::size_t rows : kRows) {
    DenseMatrix rhs(rows, rank);
    rhs.fill_random(rng, -1.0f, 1.0f);
    DenseMatrix expect = rhs;
    for (std::size_t row = 0; row < rows; ++row) {
      oracle::cholesky_solve_inplace(*l, expect.row(row));
    }
    for (std::size_t threads : {1, 4}) {
      set_host_parallelism(threads);
      DenseMatrix x(rows, rank);
      EXPECT_EQ(linalg::solve_normal_equations(m, rhs, x), 0.0);
      EXPECT_TRUE(same_bits(x, expect))
          << "rank " << rank << " rows " << rows << " threads " << threads;
      DenseMatrix in_place = rhs;
      linalg::solve_normal_equations(m, in_place, in_place);
      EXPECT_TRUE(same_bits(in_place, expect))
          << "in place: rank " << rank << " rows " << rows;
    }
  }
}

TEST_P(AlsKernelBitIdentity, NormalizeMatchesStridedColumnSweeps) {
  const std::size_t rank = GetParam();
  Rng rng(200 + rank);
  for (std::size_t rows : kRows) {
    DenseMatrix a(rows, rank);
    a.fill_random(rng, -2.0f, 2.0f);
    if (rows > 0) {
      for (std::size_t i = 0; i < rows; ++i) a(i, 0) = 0.0f;  // dead column
    }
    DenseMatrix expect = a;
    std::vector<double> expect_lambda(rank);
    oracle::normalize(expect, expect_lambda);
    std::vector<double> lambda(rank);
    EXPECT_TRUE(linalg::normalize_columns(a, lambda));
    EXPECT_TRUE(same_bits(a, expect)) << "rank " << rank << " rows " << rows;
    EXPECT_EQ(std::memcmp(lambda.data(), expect_lambda.data(),
                          rank * sizeof(double)),
              0)
        << "rank " << rank << " rows " << rows;
  }
}

TEST_P(AlsKernelBitIdentity, GramMatchesSerialRowOrder) {
  const std::size_t rank = GetParam();
  Rng rng(300 + rank);
  for (std::size_t rows : kRows) {
    DenseMatrix a(rows, rank);
    a.fill_random(rng, -1.0f, 1.0f);
    const DenseMatrix expect = oracle::gram(a);
    for (std::size_t threads : {1, 2, 3, 4}) {
      set_host_parallelism(threads);
      EXPECT_TRUE(same_bits(linalg::gram(a), expect))
          << "rank " << rank << " rows " << rows << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, AlsKernelBitIdentity,
                         ::testing::ValuesIn(kRanks));

// The whole ALS loop: factors, lambda and fit of a cp_als run must not
// depend on how many threads its solves, normalisations and grams use.
void expect_cp_als_independent_of_threads(const GeneratorOptions& gen,
                                          std::size_t rank) {
  const CooTensor input = generate_random(gen);
  AmpedBuildOptions build;
  build.num_gpus = 2;
  CpdOptions opt;
  opt.rank = rank;
  opt.max_iterations = 4;
  opt.tolerance = 0.0;

  auto run = [&](std::size_t threads) {
    set_host_parallelism(threads);
    const auto tensor = AmpedTensor::build(input, build);
    auto platform = sim::make_default_platform(build.num_gpus);
    return cp_als(platform, tensor, opt);
  };
  const CpdResult serial = run(1);
  const CpdResult parallel = run(4);
  set_host_parallelism(0);

  for (std::size_t d = 0; d < gen.dims.size(); ++d) {
    EXPECT_TRUE(same_bits(serial.factors.factor(d),
                          parallel.factors.factor(d)))
        << "mode " << d << " factors diverged";
  }
  EXPECT_EQ(std::memcmp(serial.lambda.data(), parallel.lambda.data(),
                        opt.rank * sizeof(double)),
            0);
  EXPECT_EQ(serial.fit, parallel.fit);
}

// Rank 33: the gram's tail rows and narrow panels.
TEST(AlsBitIdentityTest, CpAlsFactorsIndependentOfThreadCount) {
  GeneratorOptions gen;
  gen.dims = {700, 300, 90};
  gen.nnz = 20000;
  gen.zipf_exponents = {0.9, 0.3, 0.0};
  gen.seed = 5;
  expect_cp_als_independent_of_threads(gen, 33);
}

// The end-to-end benchmark's shape: five modes of Twitch at 1/1000 scale
// and rank 32, whole panels only.
TEST(AlsBitIdentityTest, CpAlsFiveModeRank32IndependentOfThreadCount) {
  GeneratorOptions gen;
  gen.dims = {15500, 6200, 784, 64, 64};
  gen.nnz = 60000;
  gen.zipf_exponents = {0.9, 0.6, 0.3, 0.0, 0.0};
  gen.seed = 6;
  expect_cp_als_independent_of_threads(gen, 32);
}

}  // namespace
}  // namespace amped
