#include "baselines/equal_nnz.hpp"

#include <vector>

#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
#include "exec/plan.hpp"
#include "sim/executor.hpp"

namespace amped::baselines {

BaselineResult run_equal_nnz(sim::Platform& platform, const CooTensor& t,
                             const FactorSet& factors,
                             const BaselineOptions& options) {
  BaselineResult result;
  result.name = "equal-nnz";
  result.supported = true;  // chunks stream like AMPED's shards

  const auto workload = detail::resolve_workload(options, t);
  const int m = platform.num_gpus();
  const std::size_t modes = t.num_modes();
  const std::size_t rank = factors.rank();

  // Equal contiguous nonzero ranges, original (unsorted) element order.
  std::vector<std::pair<nnz_t, nnz_t>> chunks;
  const nnz_t per = (t.nnz() + m - 1) / static_cast<nnz_t>(m);
  for (int g = 0; g < m; ++g) {
    const nnz_t lo = std::min<nnz_t>(t.nnz(), per * static_cast<nnz_t>(g));
    const nnz_t hi = std::min<nnz_t>(t.nnz(), lo + per);
    chunks.emplace_back(lo, hi);
  }

  const detail::Measure measure(platform);

  // Per mode: every GPU streams its chunk, computes per-element partials,
  // and ships them back; a host op then merges the partials on the CPU
  // and broadcasts the merged factor matrix. Chunks are unsorted element
  // ranges, so different GPUs may touch the same output rows — the
  // kernels carry no row range, so they run in plan order, and the merge
  // is a genuine barrier-delimited host step, which is exactly what the
  // Fig. 6 strawman pays for.
  std::vector<DenseMatrix> outs;
  outs.reserve(modes);
  for (std::size_t d = 0; d < modes; ++d) outs.emplace_back(t.dim(d), rank);

  exec::Plan plan;
  plan.scheduler = "equal-nnz";
  for (std::size_t d = 0; d < modes; ++d) {
    sim::KernelProfile profile;
    profile.coord_bytes_per_nnz =
        static_cast<double>(modes * sizeof(index_t) + sizeof(value_t));
    profile.factor_read_efficiency = sim::factor_read_efficiency(
        workload.full_dims, rank, d, platform.config().gpu.l2_bytes);
    // Partial-result emission: a pure R-wide store per element, no
    // read-modify-write and no atomics.
    profile.output_write_efficiency = 0.5;
    profile.atomic_scale = 0.0;

    // Chunks keep the original (unsorted) element order; one tile program
    // serves every chunk of this mode, resolved at plan-build time.
    const TileProgram* program = &KernelCache::global().find_or_create(
        KernelShape::of(modes, rank, BlockOrder::kUnsorted));

    std::uint64_t partial_bytes_total = 0;
    for (int g = 0; g < m; ++g) {
      const auto [lo, hi] = chunks[static_cast<std::size_t>(g)];
      if (lo == hi) continue;

      exec::Task h2d;
      h2d.kind = exec::TaskKind::kH2D;
      h2d.gpu = g;
      h2d.transfer_bytes = (hi - lo) * t.bytes_per_nnz();
      plan.tasks.push_back(std::move(h2d));

      exec::Task kernel;
      kernel.kind = exec::TaskKind::kKernel;
      kernel.gpu = g;
      kernel.deps = {plan.tasks.size() - 1};
      kernel.kernel = [&t, &factors, profile, program, out = &outs[d], d,
                       lo = lo, hi = hi, width = options.block_width](
                          const exec::ExecContext& ctx) -> double {
        const auto& cost = ctx.platform.cost_model(ctx.gpu);
        const int sm_count = ctx.platform.gpu(ctx.gpu).spec().sm_count;
        const nnz_t seg = std::max<nnz_t>(
            width,
            (hi - lo + sm_count - 1) / static_cast<nnz_t>(sm_count));
        std::vector<double> block_seconds;
        for (nnz_t b = lo; b < hi; b += seg) {
          const nnz_t e = std::min<nnz_t>(hi, b + seg);
          auto stats = run_ec_block(*program, t, b, e, d, factors, *out);
          // Unsorted chunk: treat every element as its own run (the kernel
          // writes one partial per element regardless of adjacency).
          stats.output_runs = stats.nnz;
          stats.block_width = static_cast<std::size_t>(width);
          block_seconds.push_back(cost.ec_block_seconds(stats, profile));
        }
        return ctx.platform.kernel_launch_seconds() +
               sim::grid_makespan(block_seconds, sm_count);
      };
      plan.tasks.push_back(std::move(kernel));

      // Intermediate values back to the host: R floats per nonzero.
      const std::uint64_t partial_bytes = (hi - lo) * rank * sizeof(value_t);
      exec::Task d2h;
      d2h.kind = exec::TaskKind::kD2H;
      d2h.gpu = g;
      d2h.transfer_bytes = partial_bytes;
      plan.tasks.push_back(std::move(d2h));
      partial_bytes_total += partial_bytes;
    }

    exec::Task barrier;
    barrier.kind = exec::TaskKind::kBarrier;
    plan.tasks.push_back(std::move(barrier));

    // Host CPU merge: read every partial, scatter-add into the output
    // factor matrix, then broadcast the merged matrix back to every GPU.
    exec::Task merge;
    merge.kind = exec::TaskKind::kHostOp;
    merge.host_op = [partial_bytes_total,
                     factor_matrix_bytes =
                         static_cast<std::uint64_t>(t.dim(d)) * rank *
                         sizeof(value_t)](sim::Platform& p) {
      p.host().wait_until(p.makespan());
      const double merge_seconds =
          2.0 * static_cast<double>(partial_bytes_total) /
          p.host_cost_model().spec().mem_bandwidth;
      p.host().advance(sim::Phase::kHostCompute, merge_seconds);
      for (int g = 0; g < p.num_gpus(); ++g) {
        p.gpu(g).wait_until(p.host().clock());
        p.h2d(g, factor_matrix_bytes);
      }
    };
    plan.tasks.push_back(std::move(merge));

    exec::Task barrier2;
    barrier2.kind = exec::TaskKind::kBarrier;
    plan.tasks.push_back(std::move(barrier2));
  }

  exec::PlanExecutor(platform).run(plan);
  if (options.collect_outputs) {
    for (auto& out : outs) result.outputs.push_back(std::move(out));
  }

  measure.finish(result);
  return result;
}

}  // namespace amped::baselines
