// Snapshot v2: the versioned on-disk tensor format of the storage engine.
//
// Layout (all fields little-endian, as written by the host):
//
//   offset 0   header, 64 bytes
//     [ 0.. 8)  magic "AMPTNS02"
//     [ 8..16)  u64 num_modes
//     [16..24)  u64 nnz
//     [24..32)  u64 num_segments
//     [32..40)  u64 segment table offset (= 64)
//     [40..48)  u64 FNV checksum of the segment table bytes
//     [48..64)  reserved, zero
//   offset 64  segment table, num_segments x 40-byte entries
//     u32 kind (0 = dims, 1 = indices, 2 = values, 3 = shard run stats,
//               4 = key layout, 5 = records, 6 = high bits)
//     u32 param (mode number for kind 1, else 0)
//     u64 offset    -- absolute, 64-byte aligned
//     u64 bytes     -- payload size
//     u64 checksum  -- FNV over the payload
//     u64 reserved, zero
//   then one 64-byte-aligned segment per entry.
//
// A file holds a tensor in one of two forms, both with one dims segment
// (num_modes x u64):
//
//   COO (conversions, `--write-snapshot`): one indices segment per mode
//     (nnz x u32) and a values segment (nnz x f32) -- num_modes + 2
//     segments.
//   packed mode copy (spill files): the records of one AMPED mode copy
//     exactly as they sit in memory (tensor/packed_copy.hpp):
//       key layout: u32 output mode, u32 record bytes, then num_modes x
//         u32 key-field widths by mode number (must match the dims);
//       records: nnz records of 8 or 16 bytes;
//       high bits (only for keys over the records' low 32 or 64 bits:
//         33-40-bit keys in 8-byte records, 65 bits and more in 16-byte
//         ones): N x {u64 first record,
//         3 x u64 high bits, least significant first}, first at 0, both
//         strictly increasing, no bit set at or above the key's width.
//
// Either form may add one shard-run-stats segment: N x 4 u64 records
// {nnz_begin, nnz_end, runs, max_run} describing the run structure of
// each shard of the partition the file was spilled under -- written at
// spill time so the cost-model scheduler prices spilled shards from real
// structure instead of an index-width guess.
//
// 64-byte segment alignment means a mapped segment can be consumed
// in place as a typed array on any cache-line-aligned architecture — the
// zero-copy property `MappedCooTensor` and `MappedRecordCopy` rely on.
// Writes go to a temp file in the destination directory and are published
// with an atomic rename after fsync, so a crash mid-write never corrupts
// an existing snapshot. The reader also accepts v1 ("AMPTNS01") files for
// backward compatibility.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/packed_copy.hpp"

namespace amped::io {

inline constexpr char kSnapshotMagicV2[8] = {'A', 'M', 'P', 'T',
                                             'N', 'S', '0', '2'};
inline constexpr char kSnapshotMagicV1[8] = {'A', 'M', 'P', 'T',
                                             'N', 'S', '0', '1'};
inline constexpr std::size_t kSnapshotAlignment = 64;

enum class SegmentKind : std::uint32_t {
  kDims = 0,
  kIndices = 1,
  kValues = 2,
  kShardRunStats = 3,
  kKeyLayout = 4,
  kRecords = 5,
  kHighBits = 6,
};

// One record of the optional shard-run-stats segment: the run structure
// of elements [nnz_begin, nnz_end) of the (sorted) file — self-describing
// so readers match records to shards by range, not by position.
struct ShardRunStatsRecord {
  std::uint64_t nnz_begin = 0;
  std::uint64_t nnz_end = 0;
  std::uint64_t runs = 0;
  std::uint64_t max_run = 0;
};
static_assert(sizeof(ShardRunStatsRecord) == 32,
              "record layout is the on-disk layout");

// FNV-1a variant over 64-bit little-endian words (tail zero-padded, length
// folded into the seed): one multiply per 8 bytes keeps verification at
// memory-bandwidth order instead of byte-at-a-time speed.
std::uint64_t checksum64(const void* data, std::size_t bytes);

// Writes `t` as a v2 snapshot via temp file + fsync + atomic rename.
// A nonempty `shard_stats` adds the optional run-stats segment (spill
// files pass the partition's per-shard run structure; plain conversions
// write none).
void write_snapshot_file(const CooTensor& t, const std::string& path,
                         std::span<const ShardRunStatsRecord> shard_stats = {});
// Writes one packed mode copy in the record form (a spill file).
void write_snapshot_file(const PackedCopy& copy, const std::string& path,
                         std::span<const ShardRunStatsRecord> shard_stats = {});

class AtomicFileWriter;
// The same file up to its publication: written and flushed to the temp
// path of the returned writer, whose commit() fsyncs and renames it onto
// `path` (the same bytes write_snapshot_file leaves there). Destroying the
// writer uncommitted removes the temp file. `records_checksum`, when
// given, must be checksum64 of copy.bytes(); it saves the pass over the
// records a caller that computed it already would repeat.
std::unique_ptr<AtomicFileWriter> write_snapshot_uncommitted(
    const PackedCopy& copy, const std::string& path,
    std::span<const ShardRunStatsRecord> shard_stats = {},
    std::optional<std::uint64_t> records_checksum = std::nullopt);

// Reads a v2 snapshot (checksums verified) into an owned tensor; v1 files
// are accepted and routed through the v1 reader, and a packed mode copy is
// decoded in copy order. Throws std::runtime_error
// on open failure, bad structure, truncation, or checksum mismatch.
CooTensor read_snapshot_file(const std::string& path);

// Borrowed, validated view of a v2 snapshot's payload inside a mapped
// byte range. The spans alias the underlying bytes.
struct SnapshotView {
  std::vector<index_t> dims;
  nnz_t nnz = 0;
  // COO form: one span per mode, and the values.
  std::vector<std::span<const index_t>> indices;
  std::span<const value_t> values;
  // Packed form (a mode copy): its layout, records and high-bits table.
  bool packed = false;
  KeyLayout layout;
  std::span<const std::byte> records;
  std::span<const HighBitsSegment> high_bits;
  // Empty unless the file carries the optional run-stats segment.
  std::span<const ShardRunStatsRecord> shard_stats;
};

// Parses and validates a v2 snapshot held in `file`; `context` names the
// source in error messages. With verify_checksums the payload of every
// segment is hashed (touches all pages), and a packed copy's decoded
// coordinates are checked against the dims; without, only the header,
// the segment table and the small layout segments are validated.
SnapshotView parse_snapshot(std::span<const std::byte> file,
                            bool verify_checksums,
                            const std::string& context);

// Segment directory of a v2 snapshot file, for tests and tooling.
struct SnapshotSegmentInfo {
  SegmentKind kind = SegmentKind::kDims;
  std::uint32_t param = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};
struct SnapshotLayout {
  std::uint64_t num_modes = 0;
  nnz_t nnz = 0;
  std::vector<SnapshotSegmentInfo> segments;
};
SnapshotLayout inspect_snapshot(const std::string& path);

// Crash-safe file writer: bytes accumulate in `path + ".tmp-<pid>"`;
// commit() flushes, fsyncs, and atomically renames onto `path`. If the
// writer is destroyed uncommitted (error paths), the temp file is
// removed and any previous file at `path` is untouched. Not thread-safe,
// but it may be handed to another thread between calls (spill files are
// written on the building thread and committed on another).
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void write(const void* data, std::size_t bytes);
  // Writes zero bytes until the file offset reaches `offset`.
  void pad_to(std::uint64_t offset);
  std::uint64_t offset() const { return offset_; }
  const std::string& temp_path() const { return temp_path_; }
  // Hands the bytes written so far to the kernel: a mapping of
  // temp_path() sees them from here on.
  void flush();
  void commit();

 private:
  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
  std::uint64_t offset_ = 0;
  bool committed_ = false;
};

}  // namespace amped::io
