#include "core/amped_tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/shard_stream.hpp"
#include "io/snapshot.hpp"
#include "util/fault.hpp"
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
  // Build layers (see PreprocessStats).
  double sort_seconds = 0.0;
  double spill_write_seconds = 0.0;
  double post_sort_seconds = 0.0;
  double spill_commit_wait_seconds = 0.0;
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
            if (d == 0) {
              // In mode-0 sorted order, beside the other modes' sorts.
              out.values_norm_sq_ = records_norm_sq(copy.records.span());
            }
            out.copies_[d] = std::move(copy);
          } catch (...) {
            errors[d] = std::current_exception();
          }
        });
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (double s : mode_sort_seconds) sort_seconds += s;
  } else {
    // Out-of-core build: one mode at a time, so tracked host usage stays
    // at a single copy; each sorted copy is spilled to a snapshot-v2 file
    // before the next mode is sorted into the same record array. Building
    // modes in parallel would multiply that footprint, and so would a
    // second record array to write mode d while mode d+1 sorts. What runs
    // in order is what must: mode d's sort on the whole pool, its
    // partition (a binary search per shard edge), the passes over the
    // sorted records beside each other on the pool, and the write of its
    // file. The write's fsync, close and rename run on the committer's
    // thread behind mode d+1's sort; the build waits for them at the end.
    const std::size_t num_modes = input.num_modes();
    const std::string dir = io::resolve_spill_dir(options.spill_dir);
    io::SpillStats spill_stats;
    std::size_t degraded = 0;
    // Every mode is sorted into this one copy, reusing its record array.
    PackedCopy sorted;
    // What each spill file keeps besides the records: the run structure of
    // every shard, scanned while the copy is still in memory so schedulers
    // price spilled shards without disk reads, and the records' checksum.
    // Kept so a mode whose commit fails is written again without
    // repeating those passes.
    std::vector<std::vector<io::ShardRunStatsRecord>> stat_records(num_modes);
    std::vector<std::uint64_t> checksums(num_modes, 0);

    // Graceful degradation: mode d's spill failed for good (retries and
    // rebuilds exhausted), but its sorted copy is in `sorted`. Keep it
    // resident if the budget allows both this copy and the transient copy
    // the next mode's build needs; otherwise the spill error propagates.
    auto keep_resident = [&](std::size_t d, const std::exception& spill_error,
                             std::shared_ptr<io::BudgetReservation> charge) {
      if (d + 1 < num_modes && budget.limit() != 0 &&
          budget.remaining() < copy_bytes) {
        throw std::runtime_error(
            "amped build: spilling mode " + std::to_string(d) + " failed (" +
            spill_error.what() +
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
      out.copies_[d].records = std::move(sorted);
      out.copies_[d].reservation = std::move(charge);
      ++degraded;
      metrics::counter("build.degraded_to_resident").inc();
    };
    // Spills mode d from `sorted`, or keeps it resident; true if spilled.
    auto spill_mode = [&](std::size_t d,
                          std::shared_ptr<io::BudgetReservation> charge,
                          io::SpillOptions spill_options) {
      spill_options.shard_stats = stat_records[d];
      spill_options.records_checksum = checksums[d];
      spill_options.stats = &spill_stats;
      WallTimer write_timer;
      try {
        out.copies_[d].spill =
            std::make_shared<io::SpilledModeCopy>(sorted, dir, spill_options);
        spill_write_seconds += write_timer.seconds();
        return true;
      } catch (const std::exception& spill_error) {
        spill_write_seconds += write_timer.seconds();
        keep_resident(d, spill_error, std::move(charge));
        return false;
      }
    };
    auto sort_mode = [&](std::size_t d) {
      auto charge = std::make_shared<io::BudgetReservation>(
          budget, copy_bytes, "AmpedTensor mode copy under build");
      WallTimer sort_timer;
      assign_mode_copy(sorted, input, d);
      sort_seconds += sort_timer.seconds();
      return charge;
    };

    io::SpillCommitter committer;
    io::SpillOptions deferred;
    deferred.committer = &committer;
    for (std::size_t d = 0; d < num_modes; ++d) {
      auto charge = sort_mode(d);
      WallTimer post_sort_timer;
      ModeCopy& copy = out.copies_[d];
      const RecordSpan records = sorted.span();
      copy.partition = build_mode_partition(records, shards);
      const auto& part = copy.partition.shards;
      auto& shard_stats = stat_records[d];
      shard_stats.resize(part.size());
      // One pool task per pass, the whole-copy ones first: the checksum,
      // the norm (mode 0 only, in record order as on the resident path),
      // then each shard's run structure.
      const std::size_t whole_copy_passes = d == 0 ? 2 : 1;
      global_thread_pool().parallel_for(
          whole_copy_passes + part.size(),
          [&](std::size_t task) {
            if (task == 0) {
              const auto bytes = sorted.bytes();
              checksums[d] = io::checksum64(bytes.data(), bytes.size());
            } else if (task < whole_copy_passes) {
              out.values_norm_sq_ = records_norm_sq(records);
            } else {
              const Shard& shard = part[task - whole_copy_passes];
              const auto rs = compute_shard_run_stats(records, shard);
              shard_stats[task - whole_copy_passes] = {
                  shard.nnz_begin, shard.nnz_end, rs.runs, rs.max_run};
            }
          },
          /*chunk=*/1);
      post_sort_seconds += post_sort_timer.seconds();
      spill_mode(d, std::move(charge), deferred);
    }

    // Every deferred commit, in mode order, before any late failure is
    // handled (the file system sees the same order of commits on every
    // run). A commit that failed after `sorted` was reused is handled as
    // the write it ends would have been: a transient failure is a retry
    // of the write (sort mode d again, spill it with the attempts left),
    // a permanent one keeps mode d resident or fails the build.
    std::vector<std::exception_ptr> late(num_modes);
    WallTimer wait_timer;
    for (std::size_t d = 0; d < num_modes; ++d) {
      if (!out.copies_[d].spill) continue;
      try {
        out.copies_[d].spill->wait_committed();
      } catch (...) {
        late[d] = std::current_exception();
      }
    }
    spill_commit_wait_seconds = wait_timer.seconds();
    for (std::size_t d = 0; d < num_modes; ++d) {
      if (!late[d]) continue;
      out.copies_[d].spill.reset();
      auto charge = sort_mode(d);
      try {
        std::rethrow_exception(late[d]);
      } catch (const fault::TransientError&) {
        io::SpillOptions rest;
        rest.retry.max_attempts = std::max(1, rest.retry.max_attempts - 1);
        // Counted, like every retry, only when the spill then succeeds.
        if (spill_mode(d, std::move(charge), rest)) {
          ++spill_stats.retries;
          metrics::counter("stream.spill_retries").inc();
        }
      } catch (const std::exception& spill_error) {
        keep_resident(d, spill_error, std::move(charge));
      }
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
    stats->post_sort_seconds = post_sort_seconds;
    stats->spill_commit_wait_seconds = spill_commit_wait_seconds;
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
      static metrics::Histogram& build_post_sort_seconds =
          metrics::histogram("build.post_sort_seconds");
      build_post_sort_seconds.record_seconds(post_sort_seconds);
      static metrics::Histogram& build_spill_commit_wait_seconds =
          metrics::histogram("build.spill_commit_wait_seconds");
      build_spill_commit_wait_seconds.record_seconds(
          spill_commit_wait_seconds);
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
