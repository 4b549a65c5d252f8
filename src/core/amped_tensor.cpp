#include "core/amped_tensor.hpp"

#include <cassert>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/shard_stream.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace amped {

namespace {
// Modelled sort rate of the paper's 2-socket EPYC host for 16-24 byte
// records, in keys/s at n = 2^16; model_amped_preprocess_seconds folds in
// a log(nnz) depth on top, so the modelled rate falls slowly with scale.
constexpr double kHostSortKeysPerSec = 3.2e9;

// Makes `out` the mode-d copy of either input kind, sorted straight from
// the input's columns into records (no intermediate materialised copy).
template <typename Input>
void assign_mode_copy(PackedCopy& out, const Input& input, std::size_t d) {
  std::vector<std::span<const index_t>> columns;
  columns.reserve(input.num_modes());
  for (std::size_t m = 0; m < input.num_modes(); ++m) {
    columns.push_back(input.indices(m));
  }
  out.assign_sorted(input.dims(), columns, input.values(), d);
}
}  // namespace

double model_amped_preprocess_seconds(nnz_t nnz, std::size_t modes,
                                      double host_sort_keys_per_sec) {
  if (host_sort_keys_per_sec <= 0.0) {
    host_sort_keys_per_sec = kHostSortKeysPerSec;
  }
  if (nnz == 0) return 0.0;
  const double n = static_cast<double>(nnz);
  const double depth = std::max(1.0, std::log2(n) / 16.0);
  // One full sort pass per output mode, each O(n log n) with the depth
  // normalised so the rate constant is calibrated at n = 2^16.
  return static_cast<double>(modes) * n * depth / host_sort_keys_per_sec;
}

template <typename Input>
AmpedTensor AmpedTensor::build_impl(const Input& input,
                                    const AmpedBuildOptions& options,
                                    PreprocessStats* stats) {
  assert(options.num_gpus >= 1 && options.shards_per_gpu >= 1);
  WallTimer timer;

  AmpedTensor out;
  out.dims_ = input.dims();
  out.nnz_ = input.nnz();
  out.copies_.resize(input.num_modes());

  const std::size_t shards =
      options.shards_per_gpu * static_cast<std::size_t>(options.num_gpus);
  const std::uint64_t copy_bytes = input.storage_bytes();
  const std::uint64_t footprint =
      copy_bytes * static_cast<std::uint64_t>(input.num_modes());

  auto& budget = io::HostMemoryBudget::global();
  // Build layers, each summed over modes.
  double sort_seconds = 0.0;
  double spill_write_seconds = 0.0;
  bool spill = options.storage == BuildStorage::kSpilled;
  if (options.storage == BuildStorage::kAuto && budget.limit() != 0 &&
      footprint > budget.remaining()) {
    spill = true;
    AMPED_LOG_INFO << "amped build: " << input.num_modes() << " copies ("
                   << io::format_bytes(footprint)
                   << ") exceed the host memory budget ("
                   << io::format_bytes(budget.remaining())
                   << " available); spilling mode copies to disk";
  }

  if (!spill) {
    // Resident build: charge the full footprint up front (this is what
    // "host residency" costs), then build per-mode copies in parallel.
    // Per-mode copy builds are independent (each sorts the read-only
    // input into its own slot), so they spread across the host thread
    // pool, and each mode's sort runs inline on its worker. Slot order
    // makes the result independent of completion order.
    out.reservation_ = std::make_shared<io::BudgetReservation>(
        budget, footprint, "AmpedTensor resident mode copies");
    std::vector<std::exception_ptr> errors(input.num_modes());
    std::vector<double> mode_sort_seconds(input.num_modes(), 0.0);
    global_thread_pool().parallel_for(
        input.num_modes(), [&](std::size_t d) {
          try {
            ModeCopy copy;
            WallTimer sort_timer;
            assign_mode_copy(copy.records, input, d);
            mode_sort_seconds[d] = sort_timer.seconds();
            copy.partition = build_mode_partition(copy.records.span(), shards);
            out.copies_[d] = std::move(copy);
          } catch (...) {
            errors[d] = std::current_exception();
          }
        });
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (double s : mode_sort_seconds) sort_seconds += s;
    if (!out.copies_.empty()) {
      out.values_norm_sq_ = records_norm_sq(out.copies_[0].records.span());
    }
  } else {
    // Out-of-core build: one mode at a time, bounding tracked host usage
    // at a single copy; each sorted copy is spilled to a snapshot-v2
    // file and freed before the next mode starts. (Serial over modes by
    // design — parallel mode builds would multiply the transient
    // footprint; each mode's sort runs on the whole pool instead.)
    const std::string dir = io::resolve_spill_dir(options.spill_dir);
    io::SpillStats spill_stats;
    std::size_t degraded = 0;
    // Every mode is sorted into this one copy, reusing its record array.
    PackedCopy sorted;
    for (std::size_t d = 0; d < input.num_modes(); ++d) {
      auto charge = std::make_shared<io::BudgetReservation>(
          budget, copy_bytes, "AmpedTensor mode copy under build");
      ModeCopy copy;
      WallTimer sort_timer;
      assign_mode_copy(sorted, input, d);
      sort_seconds += sort_timer.seconds();
      copy.partition = build_mode_partition(sorted.span(), shards);
      if (d == 0) {
        // Same accumulation order as the resident path (mode-0 sorted).
        out.values_norm_sq_ = records_norm_sq(sorted.span());
      }
      // The sorted copy is about to leave host memory: scan each shard's
      // run structure now and persist it in the spill file, so schedulers
      // can price spilled shards exactly without disk reads later.
      std::vector<io::ShardRunStatsRecord> stat_records;
      stat_records.reserve(copy.partition.shards.size());
      for (const auto& shard : copy.partition.shards) {
        const auto rs = compute_shard_run_stats(sorted.span(), shard);
        stat_records.push_back({shard.nnz_begin, shard.nnz_end, rs.runs,
                                rs.max_run});
      }
      WallTimer write_timer;
      try {
        copy.spill = std::make_shared<io::SpilledModeCopy>(
            sorted, dir, stat_records, &spill_stats);
        spill_write_seconds += write_timer.seconds();
      } catch (const std::exception& spill_error) {
        spill_write_seconds += write_timer.seconds();
        // Graceful degradation: the spill failed permanently (retries and
        // rebuilds exhausted inside SpilledModeCopy), but the sorted copy
        // is still in memory. Keep it resident if the budget allows both
        // this copy and the transient copy the next mode's build needs;
        // otherwise the spill error propagates.
        const bool more_modes = d + 1 < input.num_modes();
        if (more_modes && budget.limit() != 0 &&
            budget.remaining() < copy_bytes) {
          throw std::runtime_error(
              "amped build: spilling mode " + std::to_string(d) +
              " failed (" + spill_error.what() +
              ") and the host memory budget has no headroom to keep the "
              "copy resident (" +
              io::format_bytes(budget.remaining()) + " free, " +
              io::format_bytes(copy_bytes) + " needed for the next mode)");
        }
        AMPED_LOG_WARN << "amped build: spilling mode " << d << " failed ("
                       << spill_error.what() << "); keeping the copy "
                       << "resident (" << io::format_bytes(copy_bytes)
                       << " charged against the budget)";
        // The build-transient charge becomes the copy's permanent one.
        copy.records = std::move(sorted);
        copy.reservation = std::move(charge);
        ++degraded;
        metrics::counter("build.degraded_to_resident").inc();
      }
      out.copies_[d] = std::move(copy);
    }
    if (stats) {
      stats->spill_retries = spill_stats.retries;
      stats->spill_rebuilds = spill_stats.rebuilds;
      stats->degraded_to_resident = degraded;
    }
  }

  if (stats) {
    stats->wall_seconds = timer.seconds();
    stats->host_seconds =
        model_amped_preprocess_seconds(input.nnz(), input.num_modes());
    stats->bytes_built = out.total_bytes();
    stats->spilled = spill;
    stats->sort_seconds = sort_seconds;
    stats->spill_write_seconds = spill_write_seconds;
  }
  // Mirror PreprocessStats into the registry so --report-json and the
  // metrics snapshot agree with the stats struct callers get in hand.
  {
    static metrics::Histogram& build_seconds =
        metrics::histogram("build.wall_seconds");
    build_seconds.record_seconds(timer.seconds());
    static metrics::Histogram& build_sort_seconds =
        metrics::histogram("build.sort_seconds");
    build_sort_seconds.record_seconds(sort_seconds);
    if (spill) {
      static metrics::Histogram& build_spill_write_seconds =
          metrics::histogram("build.spill_write_seconds");
      build_spill_write_seconds.record_seconds(spill_write_seconds);
    }
    metrics::counter("build.bytes").inc(out.total_bytes());
    if (spill) metrics::counter("build.spilled").inc();
  }
  return out;
}

AmpedTensor AmpedTensor::build(const CooTensor& input,
                               const AmpedBuildOptions& options,
                               PreprocessStats* stats) {
  return build_impl(input, options, stats);
}

AmpedTensor AmpedTensor::build(const io::MappedCooTensor& input,
                               const AmpedBuildOptions& options,
                               PreprocessStats* stats) {
  return build_impl(input, options, stats);
}

RecordSpan AmpedTensor::ModeCopy::span() const {
  return spilled() ? spill->span() : records.span();
}

CooTensor decode_copy(const AmpedTensor::ModeCopy& copy) {
  return decode_records(copy.span());
}

bool AmpedTensor::spilled() const {
  for (const auto& c : copies_) {
    if (c.spilled()) return true;
  }
  return false;
}

std::uint64_t AmpedTensor::shard_bytes(std::size_t d,
                                       std::size_t shard_id) const {
  const auto& shard = copies_[d].partition.shards[shard_id];
  return shard.nnz() * bytes_per_nnz();
}

std::uint64_t AmpedTensor::total_bytes() const {
  return static_cast<std::uint64_t>(copies_.size()) * nnz_ * bytes_per_nnz();
}

}  // namespace amped
