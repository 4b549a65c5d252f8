#include "linalg/blas.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "util/thread_pool.hpp"

namespace amped::linalg {

namespace {

// The gram is accumulated in tiles of kTile gram rows by two kPanel-wide
// column panels: 2 * kTile independent multiply-add chains, where one
// row's panel alone is a single dependent chain that waits out the FMA
// latency on every factor row. Tasks walk their tiles over one block of
// kRows factor rows before the next, so the block stays in L1 (rank 32)
// or L2.
constexpr std::size_t kTile = 4;
constexpr std::size_t kPanel = 16;
constexpr std::size_t kRows = 128;

// W adjacent floats of a row as one GCC vector: arithmetic on it runs
// lane by lane, with no reordering across lanes. W = 1 is a vector too: a
// plain float accumulator lets GCC vectorise the row loop as an in-order
// reduction, which multiplies apart from the add and so loses the fusion.
template <std::size_t W>
struct Panel {
  typedef value_t type __attribute__((vector_size(W * sizeof(value_t))));
};

// Adds rows [r0, r1) of `a` into g(i0 + k, j0 + v) for k < kTile,
// v < N * W, with the tile in registers as N W-wide panels per row. Rows
// of the tile past the last gram row repeat that row's column and are not
// stored.
//
// Each lane computes the serial loop's g(i, j) += float(double(a_i) *
// a_j), which GCC narrows to the float multiply a_i * a_j (the double
// product is exact, so the float is the same) and, on FMA targets, fuses
// with the add. The vector statement below is that float multiply and
// add, so it fuses exactly where the serial loop does.
template <std::size_t W, std::size_t N>
void accumulate_tile(const DenseMatrix& a, DenseMatrix& g, std::size_t i0,
                     std::size_t j0, std::size_t r0, std::size_t r1) {
  static_assert(N == 1 || N == 2);
  using P = typename Panel<W>::type;
  const std::size_t live = std::min(kTile, a.cols() - i0);
  std::size_t col[kTile];
  // One array per panel: GCC keeps each in registers, not a 2-D one.
  P lo[kTile], hi[kTile];
  for (std::size_t k = 0; k < kTile; ++k) {
    col[k] = i0 + std::min(k, live - 1);
    const value_t* gk = g.row(col[k]).data() + j0;
    std::memcpy(&lo[k], gk, sizeof(P));
    if constexpr (N == 2) std::memcpy(&hi[k], gk + W, sizeof(P));
  }
  for (std::size_t row = r0; row < r1; ++row) {
    const value_t* ar = a.row(row).data();
    P x, y;
    std::memcpy(&x, ar + j0, sizeof(P));
    if constexpr (N == 2) std::memcpy(&y, ar + j0 + W, sizeof(P));
    for (std::size_t k = 0; k < kTile; ++k) {
      lo[k] += ar[col[k]] * x;
      if constexpr (N == 2) hi[k] += ar[col[k]] * y;
    }
  }
  for (std::size_t k = 0; k < live; ++k) {
    value_t* gk = g.row(i0 + k).data() + j0;
    std::memcpy(gk, &lo[k], sizeof(P));
    if constexpr (N == 2) std::memcpy(gk + W, &hi[k], sizeof(P));
  }
}

// Accumulates columns [j0, j1) of the tile at i0: two kPanel-wide panels
// at a time, then what remains in one panel each of kPanel, W/2, W/4, ...,
// 1 columns as it needs.
template <std::size_t W>
void accumulate_columns(const DenseMatrix& a, DenseMatrix& g, std::size_t i0,
                        std::size_t j0, std::size_t j1, std::size_t r0,
                        std::size_t r1) {
  if constexpr (W == kPanel) {
    for (; j0 + 2 * W <= j1; j0 += 2 * W) {
      accumulate_tile<W, 2>(a, g, i0, j0, r0, r1);
    }
  }
  if (j0 + W <= j1) {
    accumulate_tile<W, 1>(a, g, i0, j0, r0, r1);
    j0 += W;
  }
  if constexpr (W > 1) accumulate_columns<W / 2>(a, g, i0, j0, j1, r0, r1);
}

}  // namespace

DenseMatrix gram(const DenseMatrix& a) {
  const std::size_t r = a.cols();
  const std::size_t n = a.rows();
  DenseMatrix g(r, r);
  const std::size_t tiles = (r + kTile - 1) / kTile;
  // Dispatch costs about 20 us: below n * r^2 = 2^21 (2000 x 32, 0.03 ms
  // on one thread) the pool no longer pays for it.
  ThreadPool& pool = global_thread_pool();
  const std::size_t tasks =
      n * r * r < (std::size_t{1} << 21) ? 1 : std::min(tiles, pool.size());
  // Every entry sums over the rows of `a` in ascending order, one fold
  // from zero, whichever tile, panel and task carry it. Columns [0, full)
  // split into whole panels. A tile of rows below `full` covers the upper
  // triangle from its first row, rounded down to a multiple of kPanel, to
  // `full`; entries left of the diagonal that it touches are overwritten
  // by the mirror below. The tail rows from `full` on cover their whole
  // row instead: the entries between a tail column and a whole-panel
  // column are taken from below the diagonal (a_j * a_i is the same
  // product), so only the tail x tail corner runs in narrow panels.
  const std::size_t full = r & ~(kPanel - 1);
  // Task t owns tiles t and 2T-1-t of every 2T, so long and short tiles
  // balance.
  pool.parallel_for(tasks, [&](std::size_t t) {
    for (std::size_t r0 = 0; r0 < n; r0 += kRows) {
      const std::size_t r1 = std::min(n, r0 + kRows);
      for (std::size_t base = 0; base < tiles; base += 2 * tasks) {
        for (std::size_t tile : {base + t, base + 2 * tasks - 1 - t}) {
          if (tile >= tiles) continue;
          const std::size_t i0 = tile * kTile;
          if (i0 < full) {
            accumulate_columns<kPanel>(a, g, i0, i0 & ~(kPanel - 1), full,
                                       r0, r1);
          } else {
            accumulate_columns<kPanel>(a, g, i0, 0, r, r0, r1);
          }
        }
      }
    }
  });
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (i >= full && j < full) {
        g(j, i) = g(i, j);
      } else {
        g(i, j) = g(j, i);
      }
    }
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
