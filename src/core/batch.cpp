#include "core/batch.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "exec/compose.hpp"
#include "exec/scheduler.hpp"

namespace amped {

namespace {

// The (workload, iteration, mode) a chain link stands for; indexed by
// ComposeInfo::scope_chain_link to attribute per-scope report rows.
struct LinkAttr {
  std::size_t workload = 0;
  std::size_t iteration = 0;
  std::size_t mode = 0;
};

// Lowers one workload's mode-`mode` plan into `out`. The output buffer is
// NOT zeroed here: mttkrp_batch hands in fresh buffers, and cpd_batch
// zeroes once per window and lets each link's host op re-zero for the
// next iteration.
exec::Plan lower_mode_plan(sim::Platform& platform, const AmpedTensor& tensor,
                           const FactorSet& factors, std::size_t mode,
                           DenseMatrix& out, const MttkrpOptions& options,
                           const exec::Scheduler& scheduler) {
  assert(out.rows() == tensor.dims()[mode] && out.cols() == factors.rank());
  const exec::ModeLowerInput input{
      platform, tensor, mode, factors, out, options,
      resolve_mttkrp_profile(options, tensor, mode, platform,
                             factors.rank())};
  return scheduler.lower(input);
}

// Composes `chains` into one graph plan, runs it, and folds the outcome
// into `report`; `attr[c][l]` names chain c's link l. Factor mirrors of
// every participant are resident on each GPU for the duration, as in the
// solo path. Returns the dispatch's seconds (wall under the host backend,
// makespan growth under the simulator).
double run_dispatch(sim::Platform& platform,
                    std::vector<std::vector<exec::Plan>>& chains,
                    const std::vector<std::vector<LinkAttr>>& attr,
                    std::uint64_t factor_bytes, const MttkrpOptions& options,
                    BatchReport& report) {
  const int m = platform.num_gpus();
  platform.barrier();
  const double t0 = platform.makespan();
  for (int g = 0; g < m; ++g) platform.gpu(g).alloc(factor_bytes);

  exec::ComposeInfo info;
  exec::Plan plan = exec::compose_graph(chains, &info);
  exec::PlanExecutor executor(platform, options.backend);
  const exec::ExecReport run = executor.run(plan);

  for (int g = 0; g < m; ++g) platform.gpu(g).free(factor_bytes);
  const double seconds = options.backend == exec::ExecBackend::kHostParallel
                             ? run.wall_seconds
                             : platform.makespan() - t0;

  report.total_seconds += seconds;
  report.graph_dispatches += 1;
  report.elided_barriers += info.elided_barriers;
  for (std::size_t s = 0; s < info.scope_chain_link.size(); ++s) {
    const auto& [c, l] = info.scope_chain_link[s];
    const LinkAttr& a = attr[c][l];
    auto& acc = report.per_tensor_gpu_compute[a.workload];
    const auto& scope = run.scope_gpu_compute[s];
    for (std::size_t g = 0; g < scope.size(); ++g) acc[g] += scope[g];
    if (run.scope_kernel_start[s] >= 0) {
      report.kernel_spans.push_back({a.workload, a.iteration, a.mode,
                                     run.scope_kernel_start[s],
                                     run.scope_kernel_finish[s]});
    }
  }
  for (const auto& e : run.gather_edges) {
    const auto& [c, l] = info.scope_chain_link[e.scope];
    const LinkAttr& a = attr[c][l];
    report.gather_edges.push_back(
        {a.workload, a.iteration, a.mode, e.bytes, e.start, e.finish});
  }
  return seconds;
}

}  // namespace

BatchReport mttkrp_batch(sim::Platform& platform,
                         std::span<const BatchWorkload> workloads,
                         std::vector<std::vector<DenseMatrix>>& outputs,
                         const MttkrpOptions& options) {
  BatchReport report;
  report.per_tensor_gpu_compute.assign(
      workloads.size(),
      std::vector<double>(static_cast<std::size_t>(platform.num_gpus()),
                          0.0));
  outputs.assign(workloads.size(), {});
  if (workloads.empty()) return report;

  // One chain of mode links per workload; the plans keep pointers into
  // `outputs`, so each workload's buffers are reserved up front.
  const auto scheduler = exec::make_scheduler(options);
  std::uint64_t factor_bytes = 0;
  std::vector<std::vector<exec::Plan>> chains(workloads.size());
  std::vector<std::vector<LinkAttr>> attr(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& w = workloads[i];
    outputs[i].reserve(w.tensor->num_modes());
    for (std::size_t d = 0; d < w.tensor->num_modes(); ++d) {
      DenseMatrix& out =
          outputs[i].emplace_back(w.tensor->dims()[d], w.factors->rank());
      chains[i].push_back(lower_mode_plan(platform, *w.tensor, *w.factors, d,
                                          out, options, *scheduler));
      attr[i].push_back({i, 0, d});
    }
    factor_bytes += w.factors->total_bytes();
  }
  run_dispatch(platform, chains, attr, factor_bytes, options, report);
  return report;
}

std::vector<CpdResult> cpd_batch(sim::Platform& platform,
                                 std::span<const AmpedTensor* const> tensors,
                                 const CpdOptions& options,
                                 BatchReport* report) {
  if (options.graph_window == 0) {
    throw std::invalid_argument(
        "cpd_batch: graph_window must be at least 1 (ALS iterations per "
        "graph dispatch)");
  }
  BatchReport local;
  local.per_tensor_gpu_compute.assign(
      tensors.size(),
      std::vector<double>(static_cast<std::size_t>(platform.num_gpus()),
                          0.0));

  std::vector<detail::AlsState> states;
  states.reserve(tensors.size());
  for (const AmpedTensor* t : tensors) states.emplace_back(*t, options);

  // Per-tensor checkpoint paths: the batch shares one CpdOptions, so each
  // workload checkpoints (and resumes) under path + ".<index>".
  const bool checkpointing = !options.checkpoint_path.empty();
  auto checkpoint_path = [&](std::size_t i) {
    return options.checkpoint_path + "." + std::to_string(i);
  };
  if (checkpointing && options.resume) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      states[i].load_checkpoint(checkpoint_path(i));
    }
  }

  // Each window lowers up to graph_window whole iterations of every
  // tensor still iterating into one graph dispatch. Each link carries its
  // ALS solve as a host op on the gather edge; the next link's kernels
  // chain off it, so tensor A's iteration i+1 overlaps tensor B's
  // iteration-i tail.
  const auto scheduler = exec::make_scheduler(options.mttkrp);
  for (;;) {
    std::vector<std::vector<exec::Plan>> chains;
    std::vector<std::vector<LinkAttr>> attr;
    std::vector<std::size_t> participants;  // state index per chain
    std::uint64_t factor_bytes = 0;
    for (std::size_t i = 0; i < states.size(); ++i) {
      auto& s = states[i];
      if (s.done()) continue;
      const std::size_t iters = std::min(
          options.graph_window, options.max_iterations - s.iterations());
      const std::size_t modes = s.num_modes();
      std::vector<exec::Plan> chain;
      std::vector<LinkAttr> chain_attr;
      detail::AlsState* st = &s;
      for (std::size_t it = 0; it < iters; ++it) {
        for (std::size_t d = 0; d < modes; ++d) {
          // First window iteration gets a fresh zeroed buffer; later
          // ones reuse it — each link's solve re-zeroes after consuming,
          // keeping the kernels' accumulation precondition.
          DenseMatrix& out = it == 0 ? s.prepare_mode(d) : s.buffer(d);
          exec::Plan p = lower_mode_plan(platform, s.tensor(), s.factors(),
                                         d, out, options.mttkrp, *scheduler);
          exec::Task solve;  // the link's ALS update, dependency-ordered
          solve.kind = exec::TaskKind::kHostOp;
          const bool last_mode = d + 1 == modes;
          solve.host_op = [st, d, last_mode](sim::Platform&) {
            // Converged earlier in this window: the rest of the window's
            // kernels still run, but their output is discarded.
            if (st->done()) return;
            st->update_mode(d, 0.0);
            st->buffer(d).set_zero();
            if (last_mode) st->finish_iteration();
          };
          p.tasks.push_back(std::move(solve));
          chain.push_back(std::move(p));
          chain_attr.push_back({i, s.iterations() + it, d});
        }
      }
      factor_bytes += s.factors().total_bytes();
      chains.push_back(std::move(chain));
      attr.push_back(std::move(chain_attr));
      participants.push_back(i);
    }
    if (chains.empty()) break;
    const double seconds = run_dispatch(platform, chains, attr, factor_bytes,
                                        options.mttkrp, local);
    // The window is shared wall time: each participant's MTTKRP account
    // is charged the window it took part in (its solves ran at zero).
    for (std::size_t i : participants) states[i].charge_mttkrp(seconds);
    if (checkpointing && options.checkpoint_every != 0) {
      // Window-boundary checkpoints: the solo per-iteration cadence
      // cannot fire mid-plan, so the modulus applies to the iteration
      // count each window ends on.
      for (std::size_t i : participants) {
        if (states[i].iterations() % options.checkpoint_every == 0) {
          states[i].save_checkpoint(checkpoint_path(i));
        }
      }
    }
  }

  std::vector<CpdResult> results;
  results.reserve(states.size());
  for (auto& s : states) results.push_back(s.take_result());
  if (report) *report = std::move(local);
  return results;
}

}  // namespace amped
