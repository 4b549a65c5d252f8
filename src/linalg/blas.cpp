#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <vector>

#include "util/thread_pool.hpp"

namespace amped::linalg {

DenseMatrix gram(const DenseMatrix& a) {
  const std::size_t r = a.cols();
  const std::size_t n = a.rows();
  DenseMatrix g(r, r);
  // Below 2^17 multiply-adds, dispatch would cost more than it saves.
  ThreadPool& pool = global_thread_pool();
  const std::size_t tasks =
      n * r * r < (std::size_t{1} << 17) ? 1 : std::min(r, pool.size());
  // Task t owns upper-triangle rows i = t and 2T-1-t of every 2T rows, so
  // long and short rows balance. Over each block of kRows rows of `a`, an
  // owned row accumulates kPanel-column panels in registers. Every entry
  // still sums over the rows of `a` in ascending order with the serial
  // loop's expression, which the compiler narrows to a float multiply and
  // may fuse with the add: it must fuse here exactly where it did there.
  // Panels start at i rounded down to a multiple of 8 to stay
  // vector-aligned; entries left of the diagonal that they touch are
  // overwritten by the mirror below.
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kPanel = 16;
  pool.parallel_for(tasks, [&](std::size_t t) {
    for (std::size_t r0 = 0; r0 < n; r0 += kRows) {
      const std::size_t r1 = std::min(n, r0 + kRows);
      for (std::size_t base = 0; base < r; base += 2 * tasks) {
        for (std::size_t i : {base + t, base + 2 * tasks - 1 - t}) {
          if (i >= r) continue;
          value_t* __restrict gi = g.row(i).data();
          std::size_t j0 = i & ~std::size_t{7};
          for (; j0 + kPanel <= r; j0 += kPanel) {
            value_t acc[kPanel];
            std::copy_n(gi + j0, kPanel, acc);
            for (std::size_t row = r0; row < r1; ++row) {
              const value_t* __restrict ar = a.row(row).data();
              const double ai = ar[i];
              for (std::size_t v = 0; v < kPanel; ++v) {
                acc[v] += static_cast<value_t>(ai * ar[j0 + v]);
              }
            }
            std::copy_n(acc, kPanel, gi + j0);
          }
          for (std::size_t row = r0; row < r1 && j0 < r; ++row) {
            const value_t* __restrict ar = a.row(row).data();
            const double ai = ar[i];
            for (std::size_t j = j0; j < r; ++j) {
              gi[j] += static_cast<value_t>(ai * ar[j]);
            }
          }
        }
      }
    }
  });
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    c.data()[i] = a.data()[i] * b.data()[i];
  }
  return c;
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const value_t aik = a(i, k);
      if (aik == value_t{0}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

bool normalize_columns(DenseMatrix& a, std::span<double> norms) {
  const std::size_t r = a.cols();
  assert(norms.size() == r);
  double* __restrict acc = norms.data();
  std::fill(norms.begin(), norms.end(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const value_t* __restrict ai = a.row(i).data();
    for (std::size_t c = 0; c < r; ++c) {
      acc[c] += static_cast<double>(ai[c]) * ai[c];
    }
  }
  std::vector<value_t> scale(r);
  for (std::size_t c = 0; c < r; ++c) {
    double norm = std::sqrt(acc[c]);
    if (norm < 1e-30) norm = 1.0;  // dead component; leave as-is
    acc[c] = norm;
    scale[c] = static_cast<value_t>(1.0 / norm);
  }
  // |x| <= max is false exactly for NaN and +-Inf, and unlike isfinite
  // it vectorises.
  int finite = 1;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    value_t* __restrict ai = a.row(i).data();
    for (std::size_t c = 0; c < r; ++c) {
      ai[c] *= scale[c];
      finite &= std::abs(ai[c]) <= std::numeric_limits<value_t>::max();
    }
  }
  return finite != 0;
}

double dot(const DenseMatrix& a, const DenseMatrix& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return acc;
}

}  // namespace amped::linalg
