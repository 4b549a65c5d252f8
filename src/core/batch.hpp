// Batched multi-tensor MTTKRP and CPD: the paper's "serve many scenarios"
// story scaled to production traffic.
//
// N independent workloads (different tensors, factor sets, and output
// buffers) run as graph dispatches: each workload's mode plans form one
// chain, and exec::compose_graph merges the chains into one plan. Every
// workload updates its own output matrices, so the chains' row-ownership
// scopes are pairwise disjoint and need no barrier between them; each
// all-gather is a dependency edge that only its own workload's next mode
// waits on. A GPU that drains tensor A's shards flows straight into
// tensor B's, and A's mode d+1 starts the moment A's own gather lands.
// Outputs are bit-identical to solo execution (interleaving cannot change
// any tensor's arithmetic: the scopes share no memory).
#pragma once

#include <span>
#include <vector>

#include "core/cpd.hpp"
#include "core/mttkrp.hpp"

namespace amped {

// One tensor's MTTKRP work in a batch. `factors` must match the tensor's
// dims; both must outlive the call.
struct BatchWorkload {
  const AmpedTensor* tensor = nullptr;
  const FactorSet* factors = nullptr;
};

// One all-gather dependency edge of a graph dispatch, attributed back to
// the workload/iteration/mode it belongs to via the composed plan's scope
// map, so per-iteration gather cost is always separable.
struct BatchGatherEdge {
  std::size_t workload = 0;   // input order of the owning workload
  std::size_t iteration = 0;  // ALS iteration (0 for mttkrp_batch)
  std::size_t mode = 0;       // output mode the gather exchanged
  std::uint64_t bytes = 0;    // wire bytes the edge moved
  double start = 0.0;         // seconds after its dispatch started
  double finish = 0.0;
};

// First-to-last kernel span of one (workload, iteration, mode) inside a
// graph dispatch — the raw material of the overlap story: span i+1 of one
// workload starting before span i of another finishes is the lane time a
// per-mode barrier would have idled away.
struct BatchKernelSpan {
  std::size_t workload = 0;
  std::size_t iteration = 0;
  std::size_t mode = 0;
  double start = 0.0;   // seconds after its dispatch started
  double finish = 0.0;
};

struct BatchReport {
  // Summed over dispatches: wall seconds under the host backend,
  // makespan growth under the simulator.
  double total_seconds = 0.0;
  // EC seconds per workload per GPU, from the composed plans' per-scope
  // accounting (order matches the workload span).
  std::vector<std::vector<double>> per_tensor_gpu_compute;
  std::size_t elided_barriers = 0;  // summed over dispatches
  // Per-edge gather accounting across every dispatch of the run.
  std::vector<BatchGatherEdge> gather_edges;
  std::vector<BatchKernelSpan> kernel_spans;
  std::size_t graph_dispatches = 0;  // composed plans executed
};

// Computes MTTKRP along all modes of every workload with constant factor
// inputs, as ONE graph dispatch: each workload's modes form a chain whose
// all-gathers are dependency edges. outputs[i][d] receives workload i's
// mode-d result (bit-identical to mttkrp_all_modes on workload i alone).
BatchReport mttkrp_batch(sim::Platform& platform,
                         std::span<const BatchWorkload> workloads,
                         std::vector<std::vector<DenseMatrix>>& outputs,
                         const MttkrpOptions& options);

// Runs CPD-ALS on every tensor simultaneously, options.graph_window whole
// ALS iterations at a time: each window lowers every still-iterating
// tensor's next iterations into ONE graph dispatch. Each link's ALS solve
// runs as a host op on its gather edge, and the next link's kernels chain
// off it, so tensor A's iteration i+1 starts while tensor B's iteration i
// is still draining. Factors, lambda, fits, iteration counts, and
// convergence decisions are bit-identical to running cp_als per tensor
// with the same options, under any policy and any tolerance; `report`,
// when non-null, receives the dispatches of the whole run. Results are in
// input order. Checkpoints are written at window boundaries.
//
// A nonzero tolerance can stop a tensor inside a window. Its later solve
// host ops then return at once, so nothing is updated after convergence,
// but the window's remaining kernels for that tensor still run and their
// output is discarded. The default window of 1 wastes nothing. A window
// of 0 throws std::invalid_argument naming graph_window.
std::vector<CpdResult> cpd_batch(sim::Platform& platform,
                                 std::span<const AmpedTensor* const> tensors,
                                 const CpdOptions& options,
                                 BatchReport* report = nullptr);

}  // namespace amped
