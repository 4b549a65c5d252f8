// The pre-engine MTTKRP executor, frozen.
//
// This is the loop-based implementation core/mttkrp.cpp carried before
// the execution-plan engine (exec/plan.hpp) replaced it: the static,
// dynamic-queue, and pipelined streaming loops hand-rolled against
// sim::Platform. It is kept verbatim for three jobs and must not evolve:
//
//  1. Outputs — tests/exec_plan_test.cpp asserts that every pre-engine
//     policy produces bit-identical outputs through the plan engine.
//  2. One-GPU timing — on a one-GPU platform the same test asserts the
//     engine's simulated times, phase by phase, within 1e-9 of the
//     makespan. (With more GPUs the engine's dependency-graph model
//     times the same work differently.)
//  3. Overhead tracking — bench_host_throughput's dispatch/ series
//     compares plan-based against loop-based dispatch wall-clock; CI
//     fails if the abstraction costs more than 5%.
//
// SchedulingPolicy::kCostModel postdates this code; it falls back to the
// nnz-LPT assignment here (assign_shards) and is not golden-compared.
#pragma once

#include "core/mttkrp.hpp"

namespace amped::exec {

ModeBreakdown reference_loop_mttkrp_one_mode(sim::Platform& platform,
                                             const AmpedTensor& tensor,
                                             const FactorSet& factors,
                                             std::size_t mode,
                                             DenseMatrix& out,
                                             const MttkrpOptions& options);

MttkrpReport reference_loop_mttkrp_all_modes(sim::Platform& platform,
                                             const AmpedTensor& tensor,
                                             const FactorSet& factors,
                                             std::vector<DenseMatrix>& outputs,
                                             const MttkrpOptions& options);

}  // namespace amped::exec
