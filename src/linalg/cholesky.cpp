#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace amped::linalg {

std::optional<DenseMatrix> cholesky(const DenseMatrix& m, double ridge) {
  assert(m.rows() == m.cols());
  const std::size_t n = m.rows();
  DenseMatrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = static_cast<double>(m(i, j));
      if (i == j) sum += ridge;
      for (std::size_t k = 0; k < j; ++k) {
        sum -= static_cast<double>(l(i, k)) * l(j, k);
      }
      if (i == j) {
        if (sum <= 0.0) return std::nullopt;
        l(i, j) = static_cast<value_t>(std::sqrt(sum));
      } else {
        l(i, j) = static_cast<value_t>(sum / l(j, j));
      }
    }
  }
  return l;
}

namespace {

// Rows per solve block: a block is transposed into a per-thread R x kBlock
// workspace so substitution runs with the rows in SIMD lanes, kLanes of
// them per register-resident pass. The workspace is double but only ever
// holds float values (inputs, and solved entries rounded as the scalar
// loop stored them), which spares a conversion per multiply-add.
constexpr std::size_t kBlock = 64;
constexpr std::size_t kLanes = 16;

// Solves L L^T x = b for the rows of `rhs` starting at `lo` (up to kBlock
// of them), writing x into the same rows of `x`.
void solve_block(const DenseMatrix& l, const DenseMatrix& rhs, DenseMatrix& x,
                 std::size_t lo) {
  thread_local std::vector<double> ws;
  const std::size_t n = l.rows();
  const std::size_t rows = std::min(kBlock, rhs.rows() - lo);
  ws.assign(n * kBlock, 0.0);  // padding lanes solve zeros
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < n; ++k) ws[k * kBlock + r] = rhs(lo + r, k);
  }
  // Lane row i <- (row i - sum_k coeff(k) * row k) / l(i, i) over k in
  // [k0, k1) ascending: per lane, the scalar substitution's double sum and
  // float store.
  const auto eliminate = [&](std::size_t i, std::size_t k0, std::size_t k1,
                             auto coeff) {
    double* __restrict wi = ws.data() + i * kBlock;
    const double diag = l(i, i);
    for (std::size_t lane = 0; lane < kBlock; lane += kLanes) {
      double acc[kLanes];
      for (std::size_t v = 0; v < kLanes; ++v) acc[v] = wi[lane + v];
      for (std::size_t k = k0; k < k1; ++k) {
        const double c = coeff(k);
        const double* __restrict wk = ws.data() + k * kBlock + lane;
        for (std::size_t v = 0; v < kLanes; ++v) acc[v] -= c * wk[v];
      }
      for (std::size_t v = 0; v < kLanes; ++v) {
        wi[lane + v] = static_cast<value_t>(acc[v] / diag);
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {  // forward: L y = b
    eliminate(i, 0, i, [&](std::size_t k) { return l(i, k); });
  }
  for (std::size_t i = n; i-- > 0;) {  // backward: L^T x = y
    eliminate(i, i + 1, n, [&](std::size_t k) { return l(k, i); });
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < n; ++k) {
      x(lo + r, k) = static_cast<value_t>(ws[k * kBlock + r]);
    }
  }
}

}  // namespace

double solve_normal_equations(const DenseMatrix& m, const DenseMatrix& rhs,
                              DenseMatrix& x) {
  assert(m.rows() == m.cols() && m.cols() == rhs.cols());
  assert(x.rows() == rhs.rows() && x.cols() == rhs.cols());
  double ridge = 0.0;
  std::optional<DenseMatrix> l = cholesky(m, ridge);
  // Rank-deficient Grams happen with unlucky initialisations; regularise
  // with a ridge that grows until the factorisation succeeds.
  double trace = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) trace += m(i, i);
  double step = std::max(1e-12, 1e-10 * trace / static_cast<double>(m.rows()));
  while (!l) {
    ridge = ridge == 0.0 ? step : ridge * 10.0;
    if (ridge > 1e6 * step) {
      throw std::runtime_error(
          "cholesky: gram matrix irrecoverably singular (ridge grew to " +
          std::to_string(ridge) + " without a positive-definite "
          "factorisation — degenerate factors or corrupt input)");
    }
    l = cholesky(m, ridge);
  }
  if (ridge != 0.0) {
    // The solve succeeded only after regularisation: the gram was
    // (numerically) singular. The run continues — ridge regression is
    // the standard ALS remedy — but the conditioning problem is worth a
    // diagnostic, not silence.
    AMPED_LOG_WARN << "cholesky: singular gram matrix regularised with "
                   << "ridge " << ridge << " (trace " << trace << ")";
  }
  const std::size_t blocks = (rhs.rows() + kBlock - 1) / kBlock;
  global_thread_pool().parallel_for(blocks, [&](std::size_t b) {
    solve_block(*l, rhs, x, b * kBlock);
  });
  return ridge;
}

}  // namespace amped::linalg
