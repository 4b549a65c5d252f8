// Disk tier of the shard streaming hierarchy: spilled mode copies and the
// double-buffered shard streamer.
//
// The paper streams shards host→GPU from N resident sorted copies (§4.4).
// When the host memory budget cannot hold those copies,
// `AmpedTensor::build` spills each finished copy to a snapshot-v2 file and
// execution extends the hierarchy one level down: disk→host→GPU. A
// `SpilledModeCopy` owns one spilled file (mapped, deleted on
// destruction), which holds the copy's packed records as they were in
// memory (tensor/packed_copy.hpp). A `ShardStreamer` feeds the executor
// record ranges from either a resident copy (zero-cost views of the whole
// copy) or a spilled one (double-buffered: a read-ahead task on the
// global thread pool fetches shard i+1 while shard i is consumed — a
// host-side copy engine, mirroring the device-side double buffering of
// `execute_pipelined`). Each acquired position is a lease on its slot:
// several threads may hold positions at once (the host backend's
// dynamic-queue lanes claim positions from one shared stream and fetch
// them in parallel), and releasing a lease recycles its slot for the
// position two ahead.
//
// Record lifecycle: sort → copy (PackedCopy) → spill file (one records
// segment) → slot (one memcpy out of the mapping into a RecordBuffer the
// slot keeps and reuses) → lane buffer (the host backend's H2D, one more
// memcpy into a buffer the lane keeps) → EC kernel. No step decodes.
//
// Read-ahead tasks are *claimable*: if every pool worker is busy (the
// per-GPU executor loops run on the same pool), the consumer claims the
// queued task and loads inline instead of blocking on an unstarted task —
// overlap is opportunistic, deadlock is impossible. A loaded slot is
// charged against the HostMemoryBudget at COO bytes (the budget's unit,
// see core/amped_tensor.hpp), so tracked peak usage stays under the
// configured limit end to end; the records it holds take less.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "tensor/packed_copy.hpp"
#include "util/fault.hpp"

namespace amped::io {

// Recovery accounting of one spill (fault-injection tests and the build
// report read these): transient write attempts retried, and corrupt
// files rebuilt from the still-resident source tensor.
struct SpillStats {
  std::size_t retries = 0;
  std::size_t rebuilds = 0;
};

class AtomicFileWriter;

// Publishes spill files on a thread of its own: the fsync, close and
// rename of each writer handed to it, in the order they were handed over.
// A dedicated thread, not a pool task: the pool sorts the next mode copy
// meanwhile, and a commit mostly waits on the disk. The destructor drops
// the commits not yet started (their temp files are removed), waits for
// the one running and joins the thread, so an owner that unwinds joins it
// too.
class SpillCommitter {
 public:
  SpillCommitter();
  ~SpillCommitter();

  SpillCommitter(const SpillCommitter&) = delete;
  SpillCommitter& operator=(const SpillCommitter&) = delete;

  // Queues writer->commit(); the future holds its outcome (a dropped
  // commit reads as a broken promise).
  std::future<void> submit(std::unique_ptr<AtomicFileWriter> writer);

 private:
  struct Pending {
    std::unique_ptr<AtomicFileWriter> writer;
    std::promise<void> done;
  };
  void run();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::thread thread_;
};

// How SpilledModeCopy writes its file.
struct SpillOptions {
  // Persisted as the snapshot's run-stats segment when nonempty: the
  // per-shard run structure of the partition the copy was built under, so
  // schedulers can price spilled shards exactly without re-reading the
  // file.
  std::span<const ShardRunStatsRecord> shard_stats;
  // checksum64 of the copy's records, when the caller computed it already
  // (the writer computes it otherwise).
  std::optional<std::uint64_t> records_checksum;
  // Takes over the fsync, close and rename when non-null (see
  // SpilledModeCopy::wait_committed); null commits before returning.
  SpillCommitter* committer = nullptr;
  // The write's transient-retry loop.
  fault::RetryPolicy retry;
  // Accumulates the recovery work performed, when non-null.
  SpillStats* stats = nullptr;
};

// A mode copy that lives on disk as a snapshot-v2 file in the record form
// instead of in host memory. The file is written on construction (atomic
// rename, checksums) and unlinked on destruction; reads go through a
// persistent mapping, so the kernel's page cache — not resident vectors —
// backs repeated sweeps.
class SpilledModeCopy {
 public:
  // Spills `sorted` to a new file under `dir` (empty = AMPED_SPILL_DIR env
  // or the system temp directory).
  //
  // Failure handling: transient write errors (injected faults, EINTR
  // class) are retried with bounded backoff; a written file that fails
  // validation when mapped back is unlinked and rebuilt from `sorted`
  // (bounded attempts). On permanent failure the constructor throws and
  // leaves no file behind.
  //
  // With a committer, the constructor writes and flushes the temp file,
  // maps it back and validates it, and hands the fsync, close and rename
  // to the committer: `sorted` is not read again once it returns, but the
  // file is published only when wait_committed() returns.
  SpilledModeCopy(const PackedCopy& sorted, const std::string& dir,
                  const SpillOptions& options = {});
  // Waits for a commit still running (so the rename cannot follow the
  // unlink), then unlinks the file.
  ~SpilledModeCopy();

  // Blocks until the committer has published the file. Rethrows a failed
  // fsync or rename: the temp file is gone then, nothing was published,
  // and the copy must be discarded (the mapping of the removed temp file
  // still reads correctly, but nothing keeps it on disk). Returns at once
  // for a copy committed on construction.
  void wait_committed();

  SpilledModeCopy(const SpilledModeCopy&) = delete;
  SpilledModeCopy& operator=(const SpilledModeCopy&) = delete;

  const KeyLayout& layout() const { return map_.layout(); }
  std::size_t num_modes() const { return layout().num_modes(); }
  nnz_t nnz() const { return map_.nnz(); }
  const std::vector<index_t>& dims() const { return layout().dims(); }
  // COO bytes one element is charged (the budget's unit).
  std::size_t bytes_per_nnz() const {
    return KeyLayout::charged_bytes_per_nnz(num_modes());
  }
  const std::string& path() const { return path_; }
  std::uint64_t file_bytes() const { return map_.mapped_bytes(); }
  // Per-shard run structure persisted at spill time (empty on files
  // written without it).
  std::span<const ShardRunStatsRecord> shard_run_stats() const {
    return map_.shard_run_stats();
  }
  // Every record, read in place from the mapping.
  RecordSpan span() const { return map_.span(); }
  // Copies records [begin, end) out of the mapping into `into` (one
  // memcpy; no allocation once `into` has held a range this large) and
  // returns the span over the copy. Budget accounting is the caller's.
  RecordSpan load(nnz_t begin, nnz_t end, RecordBuffer& into) const;

 private:
  std::string path_;
  MappedRecordCopy map_;
  std::future<void> commit_;  // valid while a deferred commit is pending
};

// Resolves the spill directory: `requested` if nonempty, else the
// AMPED_SPILL_DIR environment variable, else the system temp directory.
std::string resolve_spill_dir(const std::string& requested);

// Shard fetcher over one mode copy. Construction declares the fetch order
// (absolute [begin, end) record ranges). acquire(p) blocks until range p
// is resident and returns a Lease on it; the view stays valid until the
// lease is released (destroyed, reset or overwritten). Positions may be
// acquired by several threads, in any order, once each. Range p lives in
// slot p % 2, so acquire(p + 2) waits until p's lease is released;
// releasing p schedules the read-ahead of p + 2. A sequential caller that
// overwrites one lease with the next acquire never waits on itself: it
// holds at most p and p + 1.
class ShardStreamer {
  struct StreamState;

 public:
  // Records the kernel reads: RecordSpan::base is the absolute position
  // of the view's first record.
  using View = RecordSpan;

  // One acquired position: its view and the hold on its slot. Move-only;
  // an empty lease (default, moved-from, reset) holds nothing.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { reset(); }

    const View& view() const { return view_; }
    explicit operator bool() const { return view_.layout != nullptr; }
    // Releases the position now (a no-op on an empty lease).
    void reset() noexcept;

   private:
    friend class ShardStreamer;
    Lease(std::shared_ptr<StreamState> state, std::size_t pos, View view)
        : state_(std::move(state)), pos_(pos), view_(view) {}

    std::shared_ptr<StreamState> state_;  // null for a resident source
    std::size_t pos_ = 0;
    View view_;
  };

  // Resident source: every view is the whole copy, no buffering.
  explicit ShardStreamer(const RecordSpan& resident);

  // Disk source: ranges stream through two slot buffers, each sized for
  // the largest range on its first load (one allocation per slot, counted
  // in stream.slot_buffer_allocations), reused for every range it holds
  // and charged against the budget while loaded.
  ShardStreamer(const SpilledModeCopy& spill,
                std::vector<std::pair<nnz_t, nnz_t>> ranges);

  // Leases still held may outlive the streamer; releasing them schedules
  // nothing more.
  ~ShardStreamer();

  ShardStreamer(const ShardStreamer&) = delete;
  ShardStreamer& operator=(const ShardStreamer&) = delete;

  // Throws the range's load error (a spill read that failed for good), or
  // std::runtime_error once the stream is cancelled.
  Lease acquire(std::size_t pos);

  // Wakes every acquire waiting on a slot, and makes it and every later
  // acquire throw. A run that fails calls this: a claimed position whose
  // claimer stopped before acquiring it is never released, so a peer
  // waiting for that slot would otherwise wait forever.
  void cancel() noexcept;

  // How the streamed copy's records encode its elements.
  const KeyLayout& layout() const;

 private:
  struct Slot;

  RecordSpan resident_;  // layout == nullptr for a disk source
  // Shared with pool tasks and leases so a queued load or a held lease can
  // outlive the streamer (cancelled loads never touch the spill source).
  std::shared_ptr<StreamState> state_;
};

}  // namespace amped::io
