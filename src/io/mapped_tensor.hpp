// MappedCooTensor: an mmap-backed, zero-copy view of a v2 snapshot.
//
// Reloading a billion-nonzero tensor from a `.amptns` snapshot should cost
// neither a parse nor a copy: the 64-byte-aligned SoA segments of the v2
// layout are consumed in place as typed arrays over the mapping, so "load"
// is an mmap plus header validation, and pages stream in from disk on
// first touch (and can be evicted again under memory pressure) — the
// disk→host tier of the streaming hierarchy.
//
// The class mirrors the read-side `std::span` accessors of `CooTensor`, so
// generic code (e.g. `AmpedTensor::build`) works on either; `materialize()`
// produces an owned copy when mutation is needed. v1 snapshots cannot be
// mapped (no alignment, no checksums) — re-write them with
// `write_snapshot_file` first; `read_snapshot_file` converts transparently.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "io/mapped_file.hpp"
#include "io/snapshot.hpp"
#include "tensor/coo_tensor.hpp"

namespace amped::io {

// Open options for MappedCooTensor (a namespace-level struct so it can be
// a defaulted constructor argument).
struct MapOptions {
  // Hash every segment against its stored checksum at open. Costs one
  // sequential read of the file; disable only for sources written and
  // verified in-process (e.g. spill files).
  bool verify_checksums = true;
};

class MappedCooTensor {
 public:
  using Options = MapOptions;

  MappedCooTensor() = default;
  // Maps `path` (must be a v2 snapshot) and validates its structure.
  // Throws std::runtime_error on open/structure/checksum failure.
  explicit MappedCooTensor(const std::string& path,
                           Options options = Options{});

  MappedCooTensor(MappedCooTensor&&) noexcept = default;
  MappedCooTensor& operator=(MappedCooTensor&&) noexcept = default;

  // --- read accessors mirroring CooTensor ---
  std::size_t num_modes() const { return view_.dims.size(); }
  nnz_t nnz() const { return view_.nnz; }
  const std::vector<index_t>& dims() const { return view_.dims; }
  index_t dim(std::size_t mode) const { return view_.dims[mode]; }
  std::span<const index_t> indices(std::size_t mode) const {
    return view_.indices[mode];
  }
  std::span<const value_t> values() const { return view_.values; }
  std::size_t bytes_per_nnz() const {
    return num_modes() * sizeof(index_t) + sizeof(value_t);
  }
  std::size_t storage_bytes() const { return nnz() * bytes_per_nnz(); }
  void coords_of(nnz_t n, std::span<index_t> out) const;
  bool indices_in_bounds() const;
  std::string shape_string() const;

  // Owned deep copy (one memcpy per array; still no parse).
  CooTensor materialize() const;

  const std::string& path() const { return file_.path(); }
  // Bytes of the underlying file mapping.
  std::size_t mapped_bytes() const { return file_.size(); }
  // Optional per-shard run structure (empty unless the snapshot carries
  // the run-stats segment written at spill time).
  std::span<const ShardRunStatsRecord> shard_run_stats() const {
    return view_.shard_stats;
  }

 private:
  MappedFile file_;
  SnapshotView view_;
};

// A packed mode copy (the record form of a v2 snapshot, as spill files
// hold it) mapped in place: the records and the high-bits table are read
// straight from the mapping.
class MappedRecordCopy {
 public:
  using Options = MapOptions;

  MappedRecordCopy() = default;
  // Maps `path` (a v2 snapshot in the record form) and validates it.
  // Throws std::runtime_error naming the cause on open, structure or
  // checksum failure, or when the file is not a packed mode copy.
  explicit MappedRecordCopy(const std::string& path,
                            Options options = Options{});

  MappedRecordCopy(MappedRecordCopy&&) noexcept = default;
  MappedRecordCopy& operator=(MappedRecordCopy&&) noexcept = default;

  const KeyLayout& layout() const { return view_.layout; }
  nnz_t nnz() const { return view_.nnz; }
  // Every record, in copy order.
  RecordSpan span() const {
    return {&view_.layout, view_.high_bits, view_.records.data(), 0,
            view_.nnz};
  }
  std::size_t mapped_bytes() const { return file_.size(); }
  std::span<const ShardRunStatsRecord> shard_run_stats() const {
    return view_.shard_stats;
  }

 private:
  MappedFile file_;
  SnapshotView view_;
};

}  // namespace amped::io
