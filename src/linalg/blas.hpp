// Dense linear algebra for CPD-ALS beyond MTTKRP. The tall-matrix passes
// (gram, normalize_columns) are vectorised, gram also pool-parallel, yet
// keep the plain loop nest's per-element operation sequence (summation
// order, float/double casts): results are bit-identical at any thread
// count.
#pragma once

#include <span>

#include "tensor/dense_matrix.hpp"

namespace amped::linalg {

// C = A^T * A, for a tall matrix A (rows x R). Result is R x R symmetric.
// Entry (i, j) accumulates float(double(a_ki) * a_kj) over rows k in
// ascending order, in register tiles of 4 gram rows by up to 32 columns;
// the tiles are split across the global thread pool.
DenseMatrix gram(const DenseMatrix& a);

// C = A .* B elementwise; shapes must match.
DenseMatrix hadamard(const DenseMatrix& a, const DenseMatrix& b);

// C = A * B (naive triple loop; used only for R x R and validation sizes).
DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b);

// Column-normalises `a` in place. norms[c] receives the Euclidean norm of
// column c (summed in double over rows in ascending order), or 1.0 for a
// dead column whose norm is below 1e-30, and column c is scaled by
// value_t(1 / norms[c]). One row-major sweep accumulates every column's
// norm, a second scales. Returns false when the scaled matrix holds a NaN
// or Inf entry.
bool normalize_columns(DenseMatrix& a, std::span<double> norms);

// Sum of elementwise products <A, B>; shapes must match.
double dot(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace amped::linalg
