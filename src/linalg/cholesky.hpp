// Cholesky factorisation and solves for the ALS normal equations.
//
// Each ALS step solves  M * X^T = G^T  where M is the Hadamard product of
// Gram matrices (R x R, symmetric positive semi-definite) and G is the
// MTTKRP output (I_d x R). We factor M = L L^T with a small diagonal
// ridge fallback for rank-deficient cases, then forward- and
// back-substitute every row.
#pragma once

#include <optional>

#include "tensor/dense_matrix.hpp"

namespace amped::linalg {

// Lower-triangular Cholesky factor of a symmetric matrix; returns
// std::nullopt when the matrix is not positive definite (after `ridge`
// has been added to the diagonal).
std::optional<DenseMatrix> cholesky(const DenseMatrix& m, double ridge = 0.0);

// Solves M * X_row^T = RHS_row^T for every row of `rhs` (I_d x R), writing
// the solution into `x` (same shape; may be `rhs` itself). Retries with a
// growing ridge if M is singular and returns the ridge the factorisation
// needed (0 when M was positive definite as given).
//
// Rows are solved in blocks with the rows in SIMD lanes, blocks split
// across the global thread pool. Per row the arithmetic is the scalar
// substitution's — double sums over k in ascending order, a float store
// per solved entry — so `x` is bit-identical at any thread count.
double solve_normal_equations(const DenseMatrix& m, const DenseMatrix& rhs,
                              DenseMatrix& x);

}  // namespace amped::linalg
