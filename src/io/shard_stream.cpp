#include "io/shard_stream.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/snapshot.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped::io {

// ---------------------------------------------------------------------------
// SpilledModeCopy

std::string resolve_spill_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  const char* env = std::getenv("AMPED_SPILL_DIR");
  if (env != nullptr && *env != '\0') return env;
  return std::filesystem::temp_directory_path().string();
}

namespace {
std::string next_spill_path(const std::string& dir, std::size_t mode) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/amped-spill-p" + std::to_string(::getpid()) + "-m" +
         std::to_string(mode) + "-" +
         std::to_string(counter.fetch_add(1)) + ".amptns";
}
}  // namespace

SpillCommitter::SpillCommitter() : thread_([this] { run(); }) {}

SpillCommitter::~SpillCommitter() {
  std::deque<Pending> dropped;
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    dropped.swap(queue_);
  }
  cv_.notify_all();
  thread_.join();
  // `dropped` goes here: each writer removes its temp file, each future
  // reads a broken promise.
}

std::future<void> SpillCommitter::submit(
    std::unique_ptr<AtomicFileWriter> writer) {
  Pending pending{std::move(writer), {}};
  auto done = pending.done.get_future();
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return done;
}

void SpillCommitter::run() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      pending.writer->commit();
    } catch (...) {
      error = std::current_exception();
    }
    // A failed commit's temp file is gone before its waiter wakes.
    pending.writer.reset();
    if (error) {
      pending.done.set_exception(error);
    } else {
      pending.done.set_value();
    }
  }
}

SpilledModeCopy::SpilledModeCopy(const PackedCopy& sorted,
                                 const std::string& dir,
                                 const SpillOptions& options)
    : path_(next_spill_path(resolve_spill_dir(dir), sorted.layout().mode())) {
  constexpr int kMaxRebuilds = 3;
  SpillStats local;
  // The written, not yet published file of a deferred commit.
  std::unique_ptr<AtomicFileWriter> writer;
  try {
    for (int attempt = 1;; ++attempt) {
      // Transient write failures (injected faults, interrupted syscalls
      // surfaced as TransientError) are retried; each failed attempt's
      // temp file is removed by AtomicFileWriter's destructor, before the
      // next attempt opens the same temp path.
      fault::retry_transient(
          "spill write",
          [&] {
            writer.reset();
            writer = write_snapshot_uncommitted(sorted, path_,
                                                options.shard_stats,
                                                options.records_checksum);
            if (options.committer == nullptr) {
              writer->commit();
              writer.reset();
            }
          },
          options.retry, &local.retries);
      try {
        AMPED_FAULT_POINT("spill.verify");
        // Just written by this process; skip the checksum sweep so mapping
        // stays O(1) instead of O(file). A deferred commit maps the
        // flushed temp file, which the rename keeps mapped.
        map_ = MappedRecordCopy(writer ? writer->temp_path() : path_,
                                {.verify_checksums = false});
        break;
      } catch (const std::exception& e) {
        // The written file does not map back as a valid snapshot (bitrot,
        // a lying disk, or an injected corruption): the source tensor is
        // still resident, so rebuild instead of aborting.
        writer.reset();
        std::remove(path_.c_str());
        if (attempt > kMaxRebuilds) {
          throw std::runtime_error("spill: " + path_ +
                                   " failed validation after " +
                                   std::to_string(kMaxRebuilds) +
                                   " rebuilds: " + e.what());
        }
        ++local.rebuilds;
        AMPED_LOG_WARN << "spill: " << path_
                       << " failed validation; rebuilding from the source "
                          "tensor (" << e.what() << ")";
      }
    }
    if (writer) commit_ = options.committer->submit(std::move(writer));
  } catch (...) {
    // No orphan spill files on any failure path: the destructor will not
    // run for a throwing constructor, so unlink here.
    writer.reset();
    std::remove(path_.c_str());
    throw;
  }
  if (options.stats != nullptr) {
    options.stats->retries += local.retries;
    options.stats->rebuilds += local.rebuilds;
  }
  if (local.retries) {
    metrics::counter("stream.spill_retries")
        .inc(static_cast<std::uint64_t>(local.retries));
  }
  if (local.rebuilds) {
    metrics::counter("stream.spill_rebuilds")
        .inc(static_cast<std::uint64_t>(local.rebuilds));
  }
}

SpilledModeCopy::~SpilledModeCopy() {
  if (commit_.valid()) commit_.wait();
  // Unlink before the mapping goes away: POSIX keeps the bytes reachable
  // through the mapping, and the directory entry disappears immediately.
  std::remove(path_.c_str());
}

void SpilledModeCopy::wait_committed() {
  if (commit_.valid()) commit_.get();
}

RecordSpan SpilledModeCopy::load(nnz_t begin, nnz_t end,
                                 RecordBuffer& into) const {
  AMPED_FAULT_POINT("spill.read");
  assert(begin <= end && end <= nnz());
  return into.load(span(), begin, end);
}

// ---------------------------------------------------------------------------
// ShardStreamer

namespace {
// kDone: loaded (or failed), not yet acquired; kLeased: acquired, until
// its lease is released.
enum SlotState { kIdle, kQueued, kRunning, kDone, kLeased, kCancelled };
constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
}  // namespace

struct ShardStreamer::Slot {
  std::mutex mutex;
  std::condition_variable cv;
  int state = kIdle;
  std::size_t pos = kNoPos;  // the range queued, loading or loaded
  // Written by the loading thread while the slot is kRunning (nobody else
  // touches it then), read by the consumer once it is kDone or kLeased.
  RecordBuffer buffer;
  RecordSpan view;
  BudgetReservation charge;
  std::exception_ptr error;
};

struct ShardStreamer::StreamState
    : std::enable_shared_from_this<StreamState> {
  const SpilledModeCopy* spill = nullptr;
  std::vector<std::pair<nnz_t, nnz_t>> ranges;
  std::size_t slot_bytes = 0;  // the largest range's records
  std::array<Slot, 2> slots;
  // Set by cancel() and the streamer's destructor: acquires throw and
  // releases schedule nothing more.
  std::atomic<bool> cancelled{false};

  // Fetches range `pos` into `slot` (caller already moved it to
  // kRunning). Never throws: failures land in slot.error.
  void load(Slot& slot, std::size_t pos) {
    static metrics::Counter& allocations =
        metrics::counter("stream.slot_buffer_allocations");
    RecordSpan view;
    BudgetReservation charge;
    std::exception_ptr error;
    const std::uint64_t before = slot.buffer.allocations();
    try {
      slot.buffer.reserve(slot_bytes);
      // Transient read-ahead failures (injected faults, EINTR-class
      // conditions) retry with bounded backoff before the error is
      // surfaced to the consumer at acquire().
      fault::retry_transient("shard stream read-ahead", [&] {
        AMPED_FAULT_POINT("stream.readahead");
        const auto [begin, end] = ranges[pos];
        charge = BudgetReservation(
            HostMemoryBudget::global(),
            (end - begin) * spill->bytes_per_nnz(), "shard stream buffer");
        view = spill->load(begin, end, slot.buffer);
      });
    } catch (...) {
      error = std::current_exception();
    }
    allocations.inc(slot.buffer.allocations() - before);
    std::lock_guard lock(slot.mutex);
    slot.view = view;
    slot.charge = std::move(charge);
    slot.error = error;
    slot.state = kDone;
    slot.cv.notify_all();
  }

  // Queues the read-ahead of range `pos` into its (idle) slot, and wakes
  // an acquire waiting for it, which then loads it inline.
  void schedule(std::size_t pos) {
    auto& slot = slots[pos % 2];
    {
      std::lock_guard lock(slot.mutex);
      assert(slot.state == kIdle);
      slot.state = kQueued;
      slot.pos = pos;
      slot.error = nullptr;
    }
    slot.cv.notify_all();
    try {
      // The task shares ownership of the state so a load queued behind
      // busy workers stays valid even if the streamer is destroyed first.
      global_thread_pool().submit([state = shared_from_this(), pos] {
        auto& s = state->slots[pos % 2];
        {
          std::lock_guard lock(s.mutex);
          if (s.state != kQueued || s.pos != pos) return;  // claimed
          s.state = kRunning;
        }
        state->load(s, pos);
      });
    } catch (...) {
      // No read-ahead: the acquire of `pos` claims the queued load.
    }
  }

  // Ends the lease on `pos`: its slot (the buffer stays allocated for the
  // next range) goes to the read-ahead of pos + 2.
  void release(std::size_t pos) noexcept {
    auto& slot = slots[pos % 2];
    {
      std::lock_guard lock(slot.mutex);
      assert(slot.state == kLeased && slot.pos == pos);
      slot.view = {};
      slot.charge.reset();
      slot.state = kIdle;
    }
    if (pos + 2 < ranges.size() && !cancelled.load()) schedule(pos + 2);
  }
};

ShardStreamer::Lease& ShardStreamer::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    reset();
    state_ = std::move(other.state_);
    pos_ = other.pos_;
    view_ = std::exchange(other.view_, {});
  }
  return *this;
}

void ShardStreamer::Lease::reset() noexcept {
  view_ = {};
  if (const auto state = std::move(state_)) state->release(pos_);
}

ShardStreamer::ShardStreamer(const RecordSpan& resident)
    : resident_(resident) {}

ShardStreamer::ShardStreamer(const SpilledModeCopy& spill,
                             std::vector<std::pair<nnz_t, nnz_t>> ranges)
    : state_(std::make_shared<StreamState>()) {
  state_->spill = &spill;
  state_->ranges = std::move(ranges);
  for (const auto& [begin, end] : state_->ranges) {
    state_->slot_bytes = std::max(
        state_->slot_bytes, static_cast<std::size_t>(end - begin) *
                                spill.layout().record_bytes());
  }
  const std::size_t first = std::min<std::size_t>(2, state_->ranges.size());
  for (std::size_t pos = 0; pos < first; ++pos) state_->schedule(pos);
}

ShardStreamer::~ShardStreamer() {
  if (!state_) return;
  state_->cancelled.store(true);
  for (auto& slot : state_->slots) {
    std::unique_lock lock(slot.mutex);
    if (slot.state == kQueued) {
      // The pool task will observe the cancellation and return without
      // touching the (about to be invalid) spill source.
      slot.state = kCancelled;
    } else if (slot.state == kRunning) {
      slot.cv.wait(lock, [&] { return slot.state == kDone; });
    }
    if (slot.state == kDone) {
      // Loaded but never acquired: give its charge back now. A leased
      // slot keeps its charge until its lease is released.
      slot.view = {};
      slot.charge.reset();
      slot.state = kIdle;
    }
  }
}

void ShardStreamer::cancel() noexcept {
  if (!state_) return;
  state_->cancelled.store(true);
  for (auto& slot : state_->slots) {
    // Under the slot's lock, so a waiter between its check of the flag
    // and its wait cannot miss the wake-up.
    std::lock_guard lock(slot.mutex);
    slot.cv.notify_all();
  }
}

const KeyLayout& ShardStreamer::layout() const {
  return resident_.layout != nullptr ? *resident_.layout
                                     : state_->spill->layout();
}

ShardStreamer::Lease ShardStreamer::acquire(std::size_t pos) {
  if (resident_.layout != nullptr) return Lease(nullptr, pos, resident_);
  auto& st = *state_;
  assert(pos < st.ranges.size());
  auto& slot = st.slots[pos % 2];
  const auto cancelled = [&] { return st.cancelled.load(); };
  const auto throw_if_cancelled = [&] {
    if (!cancelled()) return;
    throw std::runtime_error("shard stream: acquire of position " +
                             std::to_string(pos) + " cancelled");
  };
  std::unique_lock lock(slot.mutex);
  if (slot.pos != pos) {
    // The slot still holds pos - 2, leased by a peer: wait for its release.
    static metrics::Counter& slot_waits =
        metrics::counter("stream.slot_waits");
    slot_waits.inc();
    slot.cv.wait(lock, [&] { return slot.pos == pos || cancelled(); });
  }
  throw_if_cancelled();
  if (slot.state == kQueued) {
    // All workers busy — claim the queued load and run it inline rather
    // than blocking on a task that cannot start.
    static metrics::Counter& inline_loads =
        metrics::counter("stream.inline_loads");
    inline_loads.inc();
    slot.state = kRunning;
    lock.unlock();
    st.load(slot, pos);
    lock.lock();
  } else {
    // The read-ahead pool either delivered already or is in flight: the
    // double-buffering did its job.
    static metrics::Counter& readahead_hits =
        metrics::counter("stream.readahead_hits");
    readahead_hits.inc();
  }
  slot.cv.wait(lock, [&] { return slot.state == kDone || cancelled(); });
  throw_if_cancelled();
  if (slot.error) {
    const auto error = slot.error;
    lock.unlock();
    std::rethrow_exception(error);
  }
  slot.state = kLeased;
  return Lease(state_, pos, slot.view);
}

}  // namespace amped::io
