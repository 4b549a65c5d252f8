// Frozen pre-engine implementation — see reference_loop.hpp. Do not
// optimise or restructure; its value is being exactly the code the plan
// engine must reproduce.
#include "exec/reference_loop.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <memory>
#include <numeric>
#include <queue>

#include "core/ec_kernel.hpp"
#include "io/shard_stream.hpp"
#include "sim/executor.hpp"
#include "util/thread_pool.hpp"

namespace amped::exec {

namespace {

// Simulated costs of one shard on one GPU. prepare_shard performs the
// real arithmetic and cost evaluation without touching device clocks, so
// callers can apply either sequential or pipelined streaming semantics.
struct ShardCost {
  std::uint64_t payload = 0;  // COO bytes streamed
  double h2d = 0.0;           // transfer seconds
  double ec = 0.0;            // grid execution seconds (incl. launch)
};

ShardCost prepare_shard(sim::Platform& platform, int gpu, const Shard& shard,
                        const io::ShardStreamer::View& view,
                        const FactorSet& factors, DenseMatrix& out,
                        const MttkrpOptions& options,
                        const sim::KernelProfile& profile) {
  const auto& device = platform.gpu(gpu);
  ShardCost cost;
  cost.payload = shard.nnz() *
                 KeyLayout::charged_bytes_per_nnz(view.layout->num_modes());
  cost.h2d = platform.h2d_seconds(cost.payload);

  const int sm_count = device.spec().sm_count;
  nnz_t isp_size = options.isp_size;
  if (isp_size == 0) {
    isp_size = std::max<nnz_t>(options.block_width,
                               (shard.nnz() + sm_count - 1) /
                                   static_cast<nnz_t>(sm_count));
  }

  // Canonical accumulation grouping (kept in lockstep with
  // make_shard_kernel): the arithmetic runs once over the whole shard so
  // the output bits do not depend on the executing device's sm_count;
  // the device-dependent ISP split only prices the grid, via an
  // index-only stats rescan.
  run_ec_block(view, shard.nnz_begin, shard.nnz_end, factors, out);
  std::vector<double> block_seconds;
  for (auto [lo, hi] : split_isps(shard, isp_size)) {
    RunStatsAccumulator acc(BlockOrder::kOutputSorted);
    for_each_output_index(view, shard.nnz_begin + lo, shard.nnz_begin + hi,
                          [&](nnz_t, index_t i) { acc.feed(i); });
    const auto stats =
        acc.finish(view.layout->num_modes(), factors.rank(),
                   static_cast<std::size_t>(options.block_width));
    block_seconds.push_back(
        platform.cost_model(gpu).ec_block_seconds(stats, profile));
  }
  cost.ec = platform.kernel_launch_seconds() +
            sim::grid_makespan(block_seconds, sm_count);
  return cost;
}

std::unique_ptr<io::ShardStreamer> make_streamer(
    const AmpedTensor::ModeCopy& copy, std::span<const std::size_t> ids) {
  if (!copy.spilled()) {
    return std::make_unique<io::ShardStreamer>(copy.records.span());
  }
  std::vector<std::pair<nnz_t, nnz_t>> ranges;
  ranges.reserve(ids.size());
  for (std::size_t id : ids) {
    const auto& shard = copy.partition.shards[id];
    ranges.emplace_back(shard.nnz_begin, shard.nnz_end);
  }
  return std::make_unique<io::ShardStreamer>(*copy.spill, std::move(ranges));
}

double execute_shard(sim::Platform& platform, int gpu,
                     const AmpedTensor::ModeCopy& copy, const Shard& shard,
                     const io::ShardStreamer::View& view,
                     const FactorSet& factors, DenseMatrix& out,
                     const MttkrpOptions& options,
                     const sim::KernelProfile& profile) {
  auto& device = platform.gpu(gpu);
  const ShardCost cost =
      prepare_shard(platform, gpu, shard, view, factors, out, options,
                    profile);
  device.alloc(cost.payload);
  platform.h2d(gpu, cost.payload);
  std::string label;
  if (device.tracing()) {
    label = "grid mode" + std::to_string(copy.partition.mode) + " idx[" +
            std::to_string(shard.index_begin) + "," +
            std::to_string(shard.index_end) + ")";
  }
  device.advance(sim::Phase::kCompute, cost.ec, std::move(label));
  device.free(cost.payload);
  return cost.ec;
}

double execute_pipelined(sim::Platform& platform, int gpu,
                         const AmpedTensor::ModeCopy& copy,
                         std::span<const std::size_t> shard_ids,
                         io::ShardStreamer& streamer,
                         const FactorSet& factors, DenseMatrix& out,
                         const MttkrpOptions& options,
                         const sim::KernelProfile& profile,
                         double* ec_total_out) {
  auto& device = platform.gpu(gpu);
  const double start = device.clock();
  double copy_clock = start;
  double compute_clock = start;
  double ec_total = 0.0;
  for (std::size_t pos = 0; pos < shard_ids.size(); ++pos) {
    const auto& shard = copy.partition.shards[shard_ids[pos]];
    const auto lease = streamer.acquire(pos);
    const ShardCost cost = prepare_shard(platform, gpu, shard, lease.view(),
                                         factors, out, options, profile);
    const double landed = copy_clock + cost.h2d;
    copy_clock = landed;
    compute_clock = std::max(compute_clock, landed) + cost.ec;
    ec_total += cost.ec;
  }
  const double finish = std::max(copy_clock, compute_clock);
  const double exposed_h2d =
      std::max(0.0, finish - start - ec_total);
  device.advance(sim::Phase::kHostToDevice, exposed_h2d);
  device.advance(sim::Phase::kCompute, ec_total);
  if (ec_total_out) *ec_total_out = ec_total;
  return finish - start;
}

}  // namespace

ModeBreakdown reference_loop_mttkrp_one_mode(sim::Platform& platform,
                                             const AmpedTensor& tensor,
                                             const FactorSet& factors,
                                             std::size_t mode,
                                             DenseMatrix& out,
                                             const MttkrpOptions& options) {
  const int m = platform.num_gpus();
  const auto& copy = tensor.mode_copy(mode);
  const auto& partition = copy.partition;
  const auto profile =
      resolve_mttkrp_profile(options, tensor, mode, platform, factors.rank());

  assert(out.rows() == tensor.dims()[mode] && out.cols() == factors.rank());
  out.set_zero();

  ModeBreakdown bd;
  bd.mode = mode;
  bd.per_gpu_compute.assign(static_cast<std::size_t>(m), 0.0);

  platform.barrier();
  const double t0 = platform.makespan();
  auto agg0 = platform.aggregate_timeline();

  const std::uint64_t factor_bytes = factors.total_bytes();
  for (int g = 0; g < m; ++g) platform.gpu(g).alloc(factor_bytes);

  std::vector<std::uint64_t> owned_rows(static_cast<std::size_t>(m), 0);

  if (options.policy == SchedulingPolicy::kDynamicQueue) {
    using Entry = std::pair<double, int>;  // (clock, gpu)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> idle;
    for (int g = 0; g < m; ++g) idle.push({platform.gpu(g).clock(), g});
    std::vector<std::size_t> all_ids(partition.shards.size());
    std::iota(all_ids.begin(), all_ids.end(), std::size_t{0});
    auto streamer = make_streamer(copy, all_ids);
    for (std::size_t s = 0; s < partition.shards.size(); ++s) {
      const auto& shard = partition.shards[s];
      auto [clock, g] = idle.top();
      idle.pop();
      const double ec =
          execute_shard(platform, g, copy, shard,
                        streamer->acquire(s).view(), factors, out, options,
                        profile);
      bd.per_gpu_compute[static_cast<std::size_t>(g)] += ec;
      owned_rows[static_cast<std::size_t>(g)] += shard.index_count();
      idle.push({platform.gpu(g).clock(), g});
    }
  } else {
    ShardAssignment assignment;
    if (options.policy == SchedulingPolicy::kWeightedStatic) {
      const double bytes_per_elem =
          static_cast<double>(tensor.bytes_per_nnz());
      const double h2d_per_byte =
          (platform.h2d_seconds(1u << 30) - platform.h2d_seconds(0)) /
          static_cast<double>(1u << 30);
      std::vector<double> weights(static_cast<std::size_t>(m));
      for (int g = 0; g < m; ++g) {
        const auto& cm = platform.cost_model(g);
        const double ec_per_elem =
            cm.bytes_per_nnz(tensor.num_modes(), factors.rank(), profile) /
            cm.spec().mem_bandwidth;
        weights[static_cast<std::size_t>(g)] =
            1.0 / (bytes_per_elem * h2d_per_byte + ec_per_elem);
      }
      assignment = assign_shards_weighted(partition, weights);
    } else {
      assignment = assign_shards(partition, m, options.policy);
    }
    auto run_gpu = [&](std::size_t gs) {
      const int g = static_cast<int>(gs);
      const auto& ids = assignment.per_gpu[gs];
      auto streamer = make_streamer(copy, ids);
      if (options.pipelined_streaming) {
        double ec_total = 0.0;
        execute_pipelined(platform, g, copy, ids, *streamer, factors, out,
                          options, profile, &ec_total);
        bd.per_gpu_compute[gs] += ec_total;
      } else {
        for (std::size_t pos = 0; pos < ids.size(); ++pos) {
          const double ec =
              execute_shard(platform, g, copy, partition.shards[ids[pos]],
                            streamer->acquire(pos).view(), factors, out,
                            options, profile);
          bd.per_gpu_compute[gs] += ec;
        }
      }
      for (std::size_t id : ids) {
        owned_rows[gs] += partition.shards[id].index_count();
      }
    };
    const bool tracing = platform.gpu(0).tracing();
    if (m > 1 && !tracing && host_parallelism() > 1) {
      std::vector<std::exception_ptr> errors(static_cast<std::size_t>(m));
      global_thread_pool().parallel_for(
          static_cast<std::size_t>(m), [&](std::size_t g) {
            try {
              run_gpu(g);
            } catch (...) {
              errors[g] = std::current_exception();
            }
          });
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    } else {
      for (std::size_t g = 0; g < static_cast<std::size_t>(m); ++g) {
        run_gpu(g);
      }
    }
  }

  platform.barrier();

  std::vector<std::uint64_t> part_bytes(static_cast<std::size_t>(m), 0);
  for (int g = 0; g < m; ++g) {
    part_bytes[static_cast<std::size_t>(g)] =
        owned_rows[static_cast<std::size_t>(g)] * factors.rank() *
        sizeof(value_t);
  }
  allgather_factor_rows(platform, part_bytes, options.allgather);

  for (int g = 0; g < m; ++g) platform.gpu(g).free(factor_bytes);

  bd.seconds = platform.makespan() - t0;
  auto agg1 = platform.aggregate_timeline();
  bd.h2d = agg1.total(sim::Phase::kHostToDevice) -
           agg0.total(sim::Phase::kHostToDevice);
  bd.compute =
      agg1.total(sim::Phase::kCompute) - agg0.total(sim::Phase::kCompute);
  bd.p2p = agg1.total(sim::Phase::kPeerToPeer) -
           agg0.total(sim::Phase::kPeerToPeer);
  bd.sync = agg1.total(sim::Phase::kSync) - agg0.total(sim::Phase::kSync);
  return bd;
}

MttkrpReport reference_loop_mttkrp_all_modes(sim::Platform& platform,
                                             const AmpedTensor& tensor,
                                             const FactorSet& factors,
                                             std::vector<DenseMatrix>& outputs,
                                             const MttkrpOptions& options) {
  MttkrpReport report;
  report.per_gpu_compute.assign(
      static_cast<std::size_t>(platform.num_gpus()), 0.0);
  outputs.clear();
  outputs.reserve(tensor.num_modes());

  platform.barrier();
  const double t0 = platform.makespan();
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    outputs.emplace_back(tensor.dims()[d], factors.rank());
    auto bd = reference_loop_mttkrp_one_mode(platform, tensor, factors, d,
                                             outputs.back(), options);
    for (std::size_t g = 0; g < bd.per_gpu_compute.size(); ++g) {
      report.per_gpu_compute[g] += bd.per_gpu_compute[g];
    }
    report.modes.push_back(std::move(bd));
  }
  report.total_seconds = platform.makespan() - t0;
  return report;
}

}  // namespace amped::exec
