#include "core/batch.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>

#include "exec/compose.hpp"
#include "exec/scheduler.hpp"

namespace amped {

namespace {

// One workload's contribution to a composed mode step.
struct ModeItem {
  const AmpedTensor* tensor = nullptr;
  const FactorSet* factors = nullptr;
  DenseMatrix* out = nullptr;
  std::size_t slot = 0;  // caller-side workload index (scope attribution)
};

// The (workload, iteration, mode) a chain link stands for; indexed by
// ComposeInfo::scope_chain_link to attribute per-scope report rows.
struct LinkAttr {
  std::size_t workload = 0;
  std::size_t iteration = 0;
  std::size_t mode = 0;
};

// Lowers one item's mode-`mode` plan (the body phase steps and graph
// dispatches share). The output buffer is NOT zeroed here: phase steps
// zero immediately before dispatch, graph chains zero once per window and
// let each link's host op re-zero for the next iteration.
exec::Plan lower_mode_plan(sim::Platform& platform, const ModeItem& item,
                           std::size_t mode, const MttkrpOptions& options,
                           const exec::Scheduler& scheduler) {
  assert(item.out->rows() == item.tensor->dims()[mode] &&
         item.out->cols() == item.factors->rank());
  const exec::ModeLowerInput input{
      platform, *item.tensor, mode, *item.factors, *item.out, options,
      resolve_mttkrp_profile(options, *item.tensor, mode, platform,
                             item.factors->rank())};
  return scheduler.lower(input);
}

// Composes `chains` into one plan, runs it, and folds the outcome into
// `report`; `attr[c][l]` names chain c's link l. A phase step
// (`step_mode` set: one one-link chain per workload of one mode position)
// keeps the policy's own streaming discipline and ends at the next step's
// barrier; a graph dispatch overlaps copy and compute and reports kernel
// spans. Factor mirrors of every participant are resident on each GPU
// for the duration, as in the solo path. Returns the dispatch's seconds
// (wall under the host backend, makespan growth under the simulator).
double run_dispatch(sim::Platform& platform,
                    std::vector<std::vector<exec::Plan>>& chains,
                    const std::vector<std::vector<LinkAttr>>& attr,
                    std::uint64_t factor_bytes, const MttkrpOptions& options,
                    BatchReport& report,
                    std::optional<std::size_t> step_mode = {}) {
  const int m = platform.num_gpus();
  platform.barrier();
  const double t0 = platform.makespan();
  for (int g = 0; g < m; ++g) platform.gpu(g).alloc(factor_bytes);

  const bool pipelined = chains.front().front().pipelined;
  exec::ComposeInfo info;
  exec::Plan plan = exec::compose_graph(chains, &info);
  if (step_mode) plan.pipelined = pipelined;
  exec::PlanExecutor executor(platform, options.backend);
  const exec::ExecReport run = executor.run(plan);

  for (int g = 0; g < m; ++g) platform.gpu(g).free(factor_bytes);
  const double seconds = options.backend == exec::ExecBackend::kHostParallel
                             ? run.wall_seconds
                             : platform.makespan() - t0;

  if (!step_mode) report.graph_dispatches += 1;
  report.elided_barriers += info.elided_barriers;
  report.steps.push_back(
      {step_mode.value_or(0), info.plans, info.elided_barriers, seconds});
  for (std::size_t s = 0; s < info.scope_chain_link.size(); ++s) {
    const auto& [c, l] = info.scope_chain_link[s];
    const LinkAttr& a = attr[c][l];
    auto& acc = report.per_tensor_gpu_compute[a.workload];
    const auto& scope = run.scope_gpu_compute[s];
    for (std::size_t g = 0; g < scope.size(); ++g) acc[g] += scope[g];
    if (!step_mode && run.scope_kernel_start[s] >= 0) {
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

// One phase-barrier step: every item's mode-`mode` plan as a one-link
// chain — the batched analogue of mttkrp_one_mode. `iterations`, when
// non-empty, tags item s's report rows with iterations[s] (cpd_batch).
double run_composed_mode(sim::Platform& platform,
                         std::span<const ModeItem> items, std::size_t mode,
                         const MttkrpOptions& options, BatchReport& report,
                         std::span<const std::size_t> iterations = {}) {
  const auto scheduler = exec::make_scheduler(options);
  std::vector<std::vector<exec::Plan>> chains(items.size());
  std::vector<std::vector<LinkAttr>> attr(items.size());
  std::uint64_t factor_bytes = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i].out->set_zero();
    chains[i].push_back(
        lower_mode_plan(platform, items[i], mode, options, *scheduler));
    attr[i].push_back(
        {items[i].slot, iterations.empty() ? 0 : iterations[i], mode});
    factor_bytes += items[i].factors->total_bytes();
  }
  return run_dispatch(platform, chains, attr, factor_bytes, options, report,
                      mode);
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
  std::size_t max_modes = 0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto& w = workloads[i];
    outputs[i].reserve(w.tensor->num_modes());
    for (std::size_t d = 0; d < w.tensor->num_modes(); ++d) {
      outputs[i].emplace_back(w.tensor->dims()[d], w.factors->rank());
    }
    max_modes = std::max(max_modes, w.tensor->num_modes());
  }

  if (options.graph_schedule && !workloads.empty()) {
    // Whole-sweep graph dispatch: one chain of mode links per workload,
    // gathers as dependency edges instead of per-position boundaries.
    const auto scheduler = exec::make_scheduler(options);
    std::uint64_t factor_bytes = 0;
    std::vector<std::vector<exec::Plan>> chains;
    std::vector<std::vector<LinkAttr>> attr;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto& w = workloads[i];
      std::vector<exec::Plan> chain;
      std::vector<LinkAttr> chain_attr;
      for (std::size_t d = 0; d < w.tensor->num_modes(); ++d) {
        const ModeItem item{w.tensor, w.factors, &outputs[i][d], i};
        chain.push_back(
            lower_mode_plan(platform, item, d, options, *scheduler));
        chain_attr.push_back({i, 0, d});
      }
      factor_bytes += w.factors->total_bytes();
      chains.push_back(std::move(chain));
      attr.push_back(std::move(chain_attr));
    }
    report.total_seconds =
        run_dispatch(platform, chains, attr, factor_bytes, options, report);
    return report;
  }

  platform.barrier();
  const double t0 = platform.makespan();
  for (std::size_t d = 0; d < max_modes; ++d) {
    std::vector<ModeItem> items;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const auto& w = workloads[i];
      if (d >= w.tensor->num_modes()) continue;
      items.push_back({w.tensor, w.factors, &outputs[i][d], i});
    }
    if (items.empty()) continue;
    run_composed_mode(platform, items, d, options, report);
  }
  if (options.backend == exec::ExecBackend::kHostParallel) {
    report.total_seconds = 0.0;
    for (const auto& step : report.steps) {
      report.total_seconds += step.seconds;
    }
  } else {
    report.total_seconds = platform.makespan() - t0;
  }
  return report;
}

std::vector<CpdResult> cpd_batch(sim::Platform& platform,
                                 std::span<const AmpedTensor* const> tensors,
                                 const CpdOptions& options,
                                 BatchReport* report) {
  BatchReport local;
  local.per_tensor_gpu_compute.assign(
      tensors.size(),
      std::vector<double>(static_cast<std::size_t>(platform.num_gpus()),
                          0.0));

  std::vector<detail::AlsState> states;
  states.reserve(tensors.size());
  std::size_t max_modes = 0;
  for (const AmpedTensor* t : tensors) {
    states.emplace_back(*t, options);
    max_modes = std::max(max_modes, t->num_modes());
  }

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

  platform.barrier();
  const double t0 = platform.makespan();
  if (options.graph_window > 0 && options.tolerance != 0.0) {
    local.graph_fallback =
        "nonzero tolerance (graph windows need a static iteration count: "
        "tolerance 0)";
  }
  const bool graph =
      options.graph_window > 0 && local.graph_fallback.empty();
  if (graph) {
    // Whole-ALS graph windows: tolerance == 0 means no convergence exit,
    // so every tensor's remaining iteration count is statically known and
    // up to graph_window whole iterations per tensor lower into one
    // graph-scheduled plan. Each link carries its ALS solve as a host op
    // on the gather edge; the next link's kernels chain off it, so tensor
    // A's iteration i+1 overlaps tensor B's iteration-i tail.
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
            // ones reuse it — each link's solve re-zeroes after
            // consuming, keeping the kernels' accumulation precondition.
            DenseMatrix* out = it == 0 ? &s.prepare_mode(d) : &s.buffer(d);
            const ModeItem item{&s.tensor(), &s.factors(), out, i};
            exec::Plan p = lower_mode_plan(platform, item, d,
                                           options.mttkrp, *scheduler);
            exec::Task solve;  // the link's ALS update, dependency-ordered
            solve.kind = exec::TaskKind::kHostOp;
            const bool last_mode = d + 1 == modes;
            solve.host_op = [st, d, last_mode](sim::Platform&) {
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
      const double seconds = run_dispatch(platform, chains, attr,
                                          factor_bytes, options.mttkrp, local);
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
  } else {
    std::vector<bool> active(states.size(), false);
    for (;;) {
      bool any_active = false;
      for (std::size_t i = 0; i < states.size(); ++i) {
        active[i] = !states[i].done();
        any_active = any_active || active[i];
      }
      if (!any_active) break;

      for (std::size_t d = 0; d < max_modes; ++d) {
        std::vector<ModeItem> items;
        std::vector<std::size_t> item_iteration;
        for (std::size_t i = 0; i < states.size(); ++i) {
          auto& s = states[i];
          if (s.done() || d >= s.num_modes()) continue;
          items.push_back({&s.tensor(), &s.factors(), &s.prepare_mode(d), i});
          item_iteration.push_back(s.iterations());
        }
        if (items.empty()) continue;
        const double seconds = run_composed_mode(
            platform, items, d, options.mttkrp, local, item_iteration);
        // The composed step is shared wall time: each participant's
        // simulated-MTTKRP account is charged the step it took part in.
        for (const auto& item : items) {
          states[item.slot].update_mode(d, seconds);
        }
      }
      for (auto& s : states) {
        if (!s.done()) s.finish_iteration();
      }
      if (checkpointing && options.checkpoint_every != 0) {
        for (std::size_t i = 0; i < states.size(); ++i) {
          // Only workloads that iterated this round have new state; the
          // modulus matches the solo cp_als cadence per tensor.
          if (active[i] &&
              states[i].iterations() % options.checkpoint_every == 0) {
            states[i].save_checkpoint(checkpoint_path(i));
          }
        }
      }
    }
  }
  if (options.mttkrp.backend == exec::ExecBackend::kHostParallel) {
    local.total_seconds = 0.0;
    for (const auto& step : local.steps) {
      local.total_seconds += step.seconds;
    }
  } else {
    local.total_seconds = platform.makespan() - t0;
  }

  std::vector<CpdResult> results;
  results.reserve(states.size());
  for (auto& s : states) results.push_back(s.take_result());
  if (report) *report = std::move(local);
  return results;
}

}  // namespace amped
