// Batched multi-tensor MTTKRP and CPD: the paper's "serve many scenarios"
// story scaled to production traffic.
//
// N independent workloads (different tensors, factor sets, and output
// buffers) are lowered mode position by mode position, and the N plans of
// each position are composed with exec::compose_graph as one-link chains
// (a phase step). Because every workload updates its own output matrix,
// the plans' row-ownership scopes are pairwise disjoint, so the step
// needs no barrier between them: a GPU that drains tensor A's shards
// flows straight into tensor B's, filling lanes that would idle in a
// back-to-back run, and each gather waits for its own tensor's kernels
// only. Outputs are bit-identical to solo execution (interleaving cannot
// change any tensor's arithmetic — the scopes share no memory). Graph
// dispatches go further and chain every mode (and ALS iteration) of a
// workload into one plan.
#pragma once

#include <span>
#include <string>
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

// One composed dispatch: all workloads' mode-`mode` plans in one plan.
struct BatchModeStep {
  std::size_t mode = 0;             // mode position composed in this step
  std::size_t plans = 0;            // workloads that contributed a plan
  std::size_t elided_barriers = 0;  // barriers removed by disjointness
  double seconds = 0.0;             // makespan growth of the step
};

// One all-gather dependency edge of a composed dispatch, attributed back
// to the workload/iteration/mode it belongs to via the composed plan's
// scope map. Legacy composition reports its end-of-plan gathers through
// the same records, so per-iteration gather cost is always separable.
struct BatchGatherEdge {
  std::size_t workload = 0;   // input order of the owning workload
  std::size_t iteration = 0;  // ALS iteration (0 for mttkrp_batch)
  std::size_t mode = 0;       // output mode the gather exchanged
  std::uint64_t bytes = 0;    // wire bytes the edge moved
  double start = 0.0;         // seconds after its dispatch started
  double finish = 0.0;
};

// First-to-last kernel span of one (workload, iteration, mode) inside a
// graph-scheduled dispatch — the raw material of the overlap story: span
// i+1 of one workload starting before span i of another finishes is the
// lane time barrier-phase composition would have idled away.
struct BatchKernelSpan {
  std::size_t workload = 0;
  std::size_t iteration = 0;
  std::size_t mode = 0;
  double start = 0.0;   // seconds after its dispatch started
  double finish = 0.0;
};

struct BatchReport {
  double total_seconds = 0.0;  // makespan of the whole batched sweep
  std::vector<BatchModeStep> steps;
  // EC seconds per workload per GPU, from the composed plans' per-scope
  // accounting (order matches the workload span).
  std::vector<std::vector<double>> per_tensor_gpu_compute;
  std::size_t elided_barriers = 0;  // summed over steps
  // Per-edge gather accounting across every dispatch of the run.
  std::vector<BatchGatherEdge> gather_edges;
  // Graph dispatches only (empty otherwise).
  std::vector<BatchKernelSpan> kernel_spans;
  std::size_t graph_dispatches = 0;  // graph-composed plans executed
  // A graph window was requested (CpdOptions::graph_window) but the run
  // fell back to phase steps: names the unmet condition (a nonzero
  // tolerance leaves the iteration count unknown). Empty when graph
  // scheduling ran or was not requested.
  std::string graph_fallback;
};

// Computes MTTKRP along all modes of every workload with constant factor
// inputs, composing same-position modes across workloads.
// outputs[i][d] receives workload i's mode-d result (bit-identical to
// mttkrp_all_modes on workload i alone).
//
// With options.graph_schedule (any policy), the whole sweep is one
// graph-scheduled plan instead of one composed plan per mode position: each workload's modes form a chain whose all-gathers
// are dependency edges, so workload A's mode d+1 kernels start the moment
// A's own gather lands — overlapping workload B's mode-d tail instead of
// waiting at a per-position boundary. Outputs stay bit-identical.
BatchReport mttkrp_batch(sim::Platform& platform,
                         std::span<const BatchWorkload> workloads,
                         std::vector<std::vector<DenseMatrix>>& outputs,
                         const MttkrpOptions& options);

// Runs CPD-ALS on every tensor simultaneously: each ALS mode update is a
// composed MTTKRP step across the tensors still iterating (a converged
// tensor stops contributing plans). Factors, fits, iteration counts, and
// convergence decisions are bit-identical to running cp_als per tensor
// with the same options; `report`, when non-null, receives the composed
// steps of the whole run. Results are in input order.
//
// With options.graph_window > 0 and options.tolerance == 0 (iteration
// count statically known), under any policy, up to graph_window whole
// iterations of every tensor are lowered into ONE graph-scheduled plan
// per window: each link's ALS solve runs as a host
// op on the gather edge, and the next iteration's kernels chain off it —
// tensor A's iteration i+1 starts while tensor B's iteration i is still
// draining. Factors and fits remain bit-identical; checkpoints are
// written at window boundaries rather than every iteration.
std::vector<CpdResult> cpd_batch(sim::Platform& platform,
                                 std::span<const AmpedTensor* const> tensors,
                                 const CpdOptions& options,
                                 BatchReport* report = nullptr);

}  // namespace amped
