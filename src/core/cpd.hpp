// CPD-ALS driver (paper §2.1.4) on top of the multi-GPU MTTKRP.
//
// Alternating least squares: for each mode d, solve
//   A_d <- MTTKRP_d(X, {A_w}) * (hadamard_{w != d} A_w^T A_w)^-1
// then column-normalise. The MTTKRP runs on the simulated multi-GPU
// platform (it is the measured bottleneck, §5.1.6); the rank x rank dense
// algebra runs on the host and is excluded from simulated time, matching
// the paper's metric which times MTTKRP across modes only.
#pragma once

#include <cstdint>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/mttkrp.hpp"
#include "sim/platform.hpp"
#include "tensor/dense_matrix.hpp"
#include "util/timer.hpp"

namespace amped {

struct CpdOptions {
  std::size_t rank = 32;
  std::size_t max_iterations = 25;
  // Stop when the fit improves by less than this between iterations.
  double tolerance = 1e-5;
  std::uint64_t seed = 7;
  MttkrpOptions mttkrp;
  // Checkpoint/restart: when nonempty, an atomic "AMPCKP01" checkpoint
  // (factors + lambda + iteration + convergence state) is written to this
  // path every `checkpoint_every` iterations. With `resume`, an existing
  // checkpoint is loaded first and the run continues from it — the
  // resumed run is bit-identical to one that was never interrupted
  // (grams are recomputed deterministically from the factor bits).
  // A missing checkpoint under `resume` is a fresh start, not an error;
  // a corrupt or mismatched one throws. cpd_batch appends ".<index>" to
  // the path for each tensor in the batch.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  // cpd_batch only (cp_als ignores it): ALS iterations lowered into each
  // graph dispatch (exec/compose.hpp compose_graph), whose all-gathers are
  // dependency edges — tensor A's mode d+1 starts the moment its own
  // factors land, overlapping tensor B's mode-d tail. Any policy and any
  // tolerance; checkpoints fire at window boundaries. A tensor that
  // converges inside a window still runs that window's remaining kernels
  // (their output is discarded), so 1 wastes nothing. Must be >= 1.
  std::size_t graph_window = 1;
};

struct CpdResult {
  FactorSet factors;            // column-normalised factor matrices
  std::vector<double> lambda;   // per-component weights
  double fit = 0.0;             // 1 - ||X - X_hat||_F / ||X||_F
  std::size_t iterations = 0;
  bool converged = false;
  // MTTKRP time across all iterations: simulated seconds under the
  // default backend, measured wall seconds under ExecBackend::kHostParallel.
  double mttkrp_sim_seconds = 0.0;
  std::vector<double> fit_history;  // fit after each iteration
  // Per-phase totals summed over every mode of every iteration (the
  // ModeBreakdown categories), plus the cost model's prices of the same
  // work — the measured-vs-predicted pairs --report-json emits per phase.
  double h2d_seconds = 0.0;
  double compute_seconds = 0.0;
  double p2p_seconds = 0.0;
  // Factor all-gather traffic summed over the per-edge gather records the
  // executor keeps (exec::ExecReport::gather_edges) — the bytes behind
  // p2p_seconds, emitted alongside it by --report-json.
  std::uint64_t gather_bytes = 0;
  double sync_seconds = 0.0;
  double predicted_compute_seconds = 0.0;
  double predicted_h2d_seconds = 0.0;
  // Normal-equation solves whose gram matrix was singular and needed a
  // diagonal ridge to factor (linalg::solve_normal_equations), and the
  // largest ridge any of them used (a resumed run counts from the resume
  // point). Nonzero means degenerate factors.
  std::size_t regularized_solves = 0;
  double max_ridge = 0.0;
  // Checkpoint/resume events of this run (cp_als fills these; the
  // batched driver manages its own checkpoint paths).
  bool resumed = false;
  std::size_t resume_iteration = 0;   // iteration restored from disk
  std::size_t checkpoints_written = 0;
};

// Frobenius norm squared of the tensor's nonzero values.
double tensor_norm_sq(const CooTensor& t);

// Runs ALS until convergence or max_iterations. `tensor` supplies both the
// execution format and (through mode copy 0) the values for the fit.
CpdResult cp_als(sim::Platform& platform, const AmpedTensor& tensor,
                 const CpdOptions& options);

namespace detail {

// Host-side state of one tensor's ALS run, factored out of cp_als so the
// batched driver (core/batch.hpp) performs the exact same per-mode
// algebra — graph dispatches' solve host ops feed update_mode() and the
// factors, fits, and stopping decisions stay bit-identical to a solo
// cp_als.
class AlsState {
 public:
  AlsState(const AmpedTensor& tensor, const CpdOptions& options);

  const AmpedTensor& tensor() const { return *tensor_; }
  const FactorSet& factors() const { return result_.factors; }
  std::size_t num_modes() const { return tensor_->num_modes(); }
  bool done() const { return done_; }
  std::size_t iterations() const { return result_.iterations; }

  // Returns the zero-free output buffer the mode-`d` MTTKRP writes into
  // (sized dims[d] x rank; the MTTKRP zeroes it). Buffers are per mode
  // with stable addresses, so a graph-scheduled window can hold plans
  // against every mode's buffer at once.
  DenseMatrix& prepare_mode(std::size_t d);
  // The mode-`d` MTTKRP buffer as prepare_mode last shaped it. Graph
  // windows reuse it across iterations (the solve's host op zeroes it
  // after consuming it) instead of reallocating per iteration.
  DenseMatrix& buffer(std::size_t d) { return mttkrp_outs_[d]; }
  // Charges `sim_seconds` of simulated MTTKRP time and performs the ALS
  // update for mode `d`: normal equations, column normalisation, gram
  // refresh (and the inner product on the last mode).
  void update_mode(std::size_t d, double sim_seconds);
  // Charges MTTKRP seconds directly — graph windows price the whole
  // window's makespan once rather than attributing per mode.
  void charge_mttkrp(double sim_seconds);
  // Computes the fit, records the iteration, and decides convergence.
  void finish_iteration();

  // Writes the run's state to `path` atomically (core/checkpoint.hpp).
  void save_checkpoint(const std::string& path) const;
  // Restores from `path` if it exists: factors, lambda, fit trajectory,
  // iteration count, convergence flags; grams are recomputed from the
  // restored factor bits (deterministic, so the resumed run stays
  // bit-identical). Returns false when no file exists (fresh start);
  // throws on a corrupt file or a shape/rank mismatch with this run.
  bool load_checkpoint(const std::string& path);

  CpdResult take_result() { return std::move(result_); }

 private:
  const AmpedTensor* tensor_;
  const CpdOptions* options_;
  CpdResult result_;
  std::vector<DenseMatrix> grams_;
  std::vector<DenseMatrix> mttkrp_outs_;  // one MTTKRP buffer per mode
  double prev_fit_ = 0.0;
  double iprod_ = 0.0;
  bool done_ = false;
  // Heartbeat bookkeeping: wall clock of the current iteration and the
  // MTTKRP total at its start, so finish_iteration can report deltas.
  WallTimer iter_timer_;
  double last_mttkrp_total_ = 0.0;
};

}  // namespace detail

}  // namespace amped
