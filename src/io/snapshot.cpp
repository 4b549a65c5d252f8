#include "io/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "io/mapped_file.hpp"
#include "tensor/tns_io.hpp"
#include "util/fault.hpp"

namespace amped::io {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kSegmentEntryBytes = 40;

std::uint64_t align_up(std::uint64_t offset) {
  return (offset + kSnapshotAlignment - 1) & ~(kSnapshotAlignment - 1);
}

// On-disk segment table entry. Field-order writes keep this independent of
// struct padding; sizes are asserted where it is serialised.
struct SegmentEntry {
  std::uint32_t kind = 0;
  std::uint32_t param = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

template <typename T>
T load_le(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void append_le(std::vector<std::byte>& out, T v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

std::vector<std::byte> serialise_table(const std::vector<SegmentEntry>& table) {
  std::vector<std::byte> bytes;
  bytes.reserve(table.size() * kSegmentEntryBytes);
  for (const auto& e : table) {
    append_le(bytes, e.kind);
    append_le(bytes, e.param);
    append_le(bytes, e.offset);
    append_le(bytes, e.bytes);
    append_le(bytes, e.checksum);
    append_le(bytes, std::uint64_t{0});  // reserved
  }
  return bytes;
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t bytes) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull ^ bytes;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t n = bytes;
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// AtomicFileWriter

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path),
      temp_path_(path + ".tmp-" + std::to_string(::getpid())) {
  file_ = std::fopen(temp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    fail("cannot open " + temp_path_ + " for writing: " +
         std::strerror(errno));
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!committed_) {
    std::remove(temp_path_.c_str());
  }
}

void AtomicFileWriter::write(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  if (file_ == nullptr) {
    fail("write to " + temp_path_ + " after commit or close");
  }
  AMPED_FAULT_POINT("snapshot.write");
  if (std::fwrite(data, 1, bytes, file_) != bytes) {
    fail("short write to " + temp_path_);
  }
  offset_ += bytes;
}

void AtomicFileWriter::pad_to(std::uint64_t offset) {
  if (offset < offset_) fail("pad_to before current offset");
  static constexpr std::array<std::byte, kSnapshotAlignment> kZeros{};
  std::uint64_t remaining = offset - offset_;
  while (remaining > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining,
                                                         kZeros.size()));
    write(kZeros.data(), chunk);
    remaining -= chunk;
  }
}

void AtomicFileWriter::flush() {
  if (file_ == nullptr) fail("flush of " + temp_path_ + " after close");
  if (std::fflush(file_) != 0) fail("flush failed for " + temp_path_);
}

void AtomicFileWriter::commit() {
  flush();
  AMPED_FAULT_POINT("snapshot.fsync");
  // fsync may be interrupted by a signal before any I/O happens; retry
  // until it succeeds or fails for a real reason.
  while (::fsync(::fileno(file_)) != 0) {
    if (errno != EINTR) {
      fail("fsync failed for " + temp_path_ + ": " + std::strerror(errno));
    }
  }
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    fail("close failed for " + temp_path_);
  }
  file_ = nullptr;
  AMPED_FAULT_POINT("snapshot.rename");
  std::error_code ec;
  std::filesystem::rename(temp_path_, path_, ec);
  if (ec) {
    fail("rename " + temp_path_ + " -> " + path_ + ": " + ec.message());
  }
  committed_ = true;
}

// ---------------------------------------------------------------------------
// Writer

namespace {

// One segment to write: its table fields and where its payload lives.
struct PendingSegment {
  SegmentKind kind;
  std::uint32_t param = 0;
  const void* data = nullptr;
  std::uint64_t bytes = 0;
  // checksum64 of the payload when the caller has it already.
  std::optional<std::uint64_t> checksum = std::nullopt;
};

// Writes header, table and payloads of `segments` to the temp file of
// `path` and flushes it; commit() publishes it.
std::unique_ptr<AtomicFileWriter> write_segments_uncommitted(
    const std::string& path, std::uint64_t modes, std::uint64_t nnz,
    const std::vector<PendingSegment>& segments) {
  std::vector<SegmentEntry> table;
  table.reserve(segments.size());
  std::uint64_t cursor =
      align_up(kHeaderBytes + segments.size() * kSegmentEntryBytes);
  for (const auto& seg : segments) {
    SegmentEntry e;
    e.kind = static_cast<std::uint32_t>(seg.kind);
    e.param = seg.param;
    e.offset = cursor;
    e.bytes = seg.bytes;
    e.checksum = seg.checksum ? *seg.checksum
                              : checksum64(seg.data,
                                           static_cast<std::size_t>(seg.bytes));
    table.push_back(e);
    cursor = align_up(cursor + seg.bytes);
  }
  const auto table_bytes = serialise_table(table);

  std::vector<std::byte> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(),
                reinterpret_cast<const std::byte*>(kSnapshotMagicV2),
                reinterpret_cast<const std::byte*>(kSnapshotMagicV2) + 8);
  append_le(header, modes);
  append_le(header, nnz);
  append_le(header, static_cast<std::uint64_t>(table.size()));
  append_le(header, static_cast<std::uint64_t>(kHeaderBytes));
  append_le(header, checksum64(table_bytes.data(), table_bytes.size()));
  header.resize(kHeaderBytes, std::byte{0});

  auto out = std::make_unique<AtomicFileWriter>(path);
  out->write(header.data(), header.size());
  out->write(table_bytes.data(), table_bytes.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    out->pad_to(table[i].offset);
    out->write(segments[i].data, static_cast<std::size_t>(segments[i].bytes));
  }
  out->flush();
  return out;
}

}  // namespace

void write_snapshot_file(const CooTensor& t, const std::string& path,
                         std::span<const ShardRunStatsRecord> shard_stats) {
  const std::uint64_t nnz = t.nnz();
  const std::vector<std::uint64_t> dims64(t.dims().begin(), t.dims().end());
  std::vector<PendingSegment> segments;
  segments.push_back({SegmentKind::kDims, 0, dims64.data(),
                      dims64.size() * sizeof(std::uint64_t)});
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    segments.push_back({SegmentKind::kIndices, static_cast<std::uint32_t>(m),
                        t.indices(m).data(), nnz * sizeof(index_t)});
  }
  segments.push_back(
      {SegmentKind::kValues, 0, t.values().data(), nnz * sizeof(value_t)});
  if (!shard_stats.empty()) {
    segments.push_back({SegmentKind::kShardRunStats, 0, shard_stats.data(),
                        shard_stats.size() * sizeof(ShardRunStatsRecord)});
  }
  write_segments_uncommitted(path, t.num_modes(), nnz, segments)->commit();
}

void write_snapshot_file(const PackedCopy& copy, const std::string& path,
                         std::span<const ShardRunStatsRecord> shard_stats) {
  write_snapshot_uncommitted(copy, path, shard_stats)->commit();
}

std::unique_ptr<AtomicFileWriter> write_snapshot_uncommitted(
    const PackedCopy& copy, const std::string& path,
    std::span<const ShardRunStatsRecord> shard_stats,
    std::optional<std::uint64_t> records_checksum) {
  const KeyLayout& layout = copy.layout();
  const std::vector<std::uint64_t> dims64(layout.dims().begin(),
                                          layout.dims().end());
  std::vector<std::uint32_t> key_layout = {
      static_cast<std::uint32_t>(layout.mode()),
      static_cast<std::uint32_t>(layout.record_bytes())};
  for (std::size_t m = 0; m < layout.num_modes(); ++m) {
    key_layout.push_back(layout.width(m));
  }
  const auto records = copy.bytes();
  std::vector<PendingSegment> segments = {
      {SegmentKind::kDims, 0, dims64.data(),
       dims64.size() * sizeof(std::uint64_t)},
      {SegmentKind::kKeyLayout, 0, key_layout.data(),
       key_layout.size() * sizeof(std::uint32_t)},
      {SegmentKind::kRecords, 0, records.data(), records.size(),
       records_checksum},
  };
  if (layout.segmented()) {
    segments.push_back({SegmentKind::kHighBits, 0, copy.high_bits().data(),
                        copy.high_bits().size_bytes()});
  }
  if (!shard_stats.empty()) {
    segments.push_back({SegmentKind::kShardRunStats, 0, shard_stats.data(),
                        shard_stats.size() * sizeof(ShardRunStatsRecord)});
  }
  return write_segments_uncommitted(path, layout.num_modes(), copy.nnz(),
                                    segments);
}

// ---------------------------------------------------------------------------
// Reader

namespace {

// Checks a packed mode copy's layout, records and high-bits table against
// its dims, and sets view.layout. `bad` throws.
template <typename Bad>
void validate_packed(SnapshotView& view,
                     std::span<const std::uint32_t> key_layout,
                     std::uint64_t records_bytes, bool high_seen,
                     bool verify_coordinates, const Bad& bad) {
  const std::size_t modes = view.dims.size();
  const std::uint32_t mode = key_layout[0];
  const std::uint32_t record_bytes = key_layout[1];
  if (modes == 0 || mode >= modes) bad("key layout names no mode of the copy");
  if (record_bytes != 8 && record_bytes != 16) {
    bad("key layout record width " + std::to_string(record_bytes) +
        " is not 8 or 16 bytes");
  }
  // The fields must fit the widest key the record width admits (its low
  // bits plus the high bits of a table) before they are compared with the
  // dims.
  std::uint64_t width_sum = 0;
  for (std::size_t m = 0; m < modes; ++m) width_sum += key_layout[2 + m];
  const std::uint64_t key_capacity =
      record_bytes == 8 ? util::kMaxSplitKeyBits : KeyLayout::kMaxKeyBits;
  if (width_sum > key_capacity) {
    bad("key layout widths sum to " + std::to_string(width_sum) +
        " bits, more than the " + std::to_string(key_capacity) +
        "-bit key of " + std::to_string(record_bytes) + "-byte records");
  }
  view.layout = KeyLayout(view.dims, mode);
  const KeyLayout& layout = view.layout;
  for (std::size_t m = 0; m < modes; ++m) {
    if (key_layout[2 + m] != layout.width(m)) {
      bad("key layout gives mode " + std::to_string(m) + " " +
          std::to_string(key_layout[2 + m]) + " bits, its extent " +
          std::to_string(view.dims[m]) + " needs " +
          std::to_string(layout.width(m)));
    }
  }
  if (record_bytes != layout.record_bytes()) {
    bad("records of " + std::to_string(record_bytes) +
        " bytes do not match the " + std::to_string(layout.key_bits()) +
        "-bit key");
  }
  if (records_bytes != view.nnz * record_bytes) {
    bad("bad records segment (" + std::to_string(records_bytes) +
        " bytes for " + std::to_string(view.nnz) + " records)");
  }
  if (high_seen != layout.segmented()) {
    const std::string key = std::to_string(layout.key_bits()) + "-bit key";
    const std::string records = std::to_string(record_bytes) + "-byte records";
    bad(layout.segmented()
            ? "missing high-bits segment: the " + key + " needs one with " +
                  records
            : "high-bits segment on a " + key + ", which " + records +
                  " hold whole");
  }
  const auto& high = view.high_bits;
  if (layout.segmented()) {
    if (high.empty() != (view.nnz == 0)) bad("bad high-bits segment");
    const unsigned high_width = layout.key_bits() - layout.low_bits();
    for (std::size_t i = 0; i < high.size(); ++i) {
      const bool ordered =
          i == 0 ? high[i].first == 0
                 : high[i].first > high[i - 1].first &&
                       high_less(high[i - 1].high, high[i].high);
      if (!ordered || high[i].first >= view.nnz) {
        bad("high-bits segment table out of order at entry " +
            std::to_string(i));
      }
      for (std::size_t w = 0; w < kHighWords; ++w) {
        // Bits of word w the key uses; the rest must be zero.
        const std::size_t used =
            high_width <= 64 * w
                ? 0
                : std::min<std::size_t>(high_width - 64 * w, 64);
        if (used < 64 && (high[i].high[w] >> used) != 0) {
          bad("high bits of entry " + std::to_string(i) + " exceed the " +
              std::to_string(layout.key_bits()) + "-bit key");
        }
      }
    }
  }
  if (!verify_coordinates) return;
  const RecordSpan span{&layout, high, view.records.data(), 0, view.nnz};
  // Every mode's high part in the current segment.
  std::array<index_t, kMaxModes> hi{};
  std::size_t seg = 0;
  auto enter = [&] {
    for (std::size_t m = 0; m < modes; ++m) {
      hi[m] = layout.high_part(high[seg].high, m);
    }
  };
  if (!high.empty()) enter();
  for (nnz_t n = 0; n < view.nnz; ++n) {
    while (seg + 1 < high.size() && high[seg + 1].first <= n) {
      ++seg;
      enter();
    }
    const std::uint64_t low = span.low_key(n);
    for (std::size_t m = 0; m < modes; ++m) {
      if ((hi[m] | layout.low_part(low, m)) >= view.dims[m]) {
        bad("record " + std::to_string(n) + " has mode " +
            std::to_string(m) + " coordinate beyond its extent");
      }
    }
  }
}

}  // namespace

SnapshotView parse_snapshot(std::span<const std::byte> file,
                            bool verify_checksums,
                            const std::string& context) {
  AMPED_FAULT_POINT("snapshot.read");
  auto bad = [&](const std::string& what) -> void {
    fail(what + " in " + context);
  };
  if (file.size() < kHeaderBytes) bad("file shorter than the header");
  if (std::memcmp(file.data(), kSnapshotMagicV2, 8) != 0) {
    bad("bad magic (not an AMPTNS02 snapshot)");
  }
  const auto modes = load_le<std::uint64_t>(file.data() + 8);
  const auto nnz = load_le<std::uint64_t>(file.data() + 16);
  const auto num_segments = load_le<std::uint64_t>(file.data() + 24);
  const auto table_offset = load_le<std::uint64_t>(file.data() + 32);
  const auto table_checksum = load_le<std::uint64_t>(file.data() + 40);

  if (modes > kMaxModes) bad("too many modes");
  // COO: dims, modes index segments, values; packed: dims, key layout,
  // records, high bits. Either may add one run-stats segment.
  if (num_segments < 2 ||
      num_segments > std::max<std::uint64_t>(modes + 3, 5)) {
    bad("bad segment count");
  }
  // Overflow-safe range checks: a corrupt header must produce a clear
  // error, never an out-of-bounds read (offsets/counts are attacker- or
  // bitrot-controlled here).
  if (table_offset < kHeaderBytes || table_offset > file.size() ||
      num_segments > (file.size() - table_offset) / kSegmentEntryBytes) {
    bad("segment table out of range (truncated file?)");
  }
  if (nnz > file.size() / sizeof(value_t)) {
    // Every element needs at least one 4-byte value in its segment, so a
    // larger claim cannot be honest; this also bounds nnz far below any
    // multiplication overflow in the per-segment size checks.
    bad("nnz larger than the file can hold (truncated file?)");
  }
  const std::byte* table = file.data() + table_offset;
  const std::size_t table_bytes =
      static_cast<std::size_t>(num_segments) * kSegmentEntryBytes;
  if (checksum64(table, table_bytes) != table_checksum) {
    bad("segment table checksum mismatch");
  }

  SnapshotView view;
  view.nnz = nnz;
  view.indices.resize(static_cast<std::size_t>(modes));
  std::vector<bool> mode_seen(static_cast<std::size_t>(modes), false);
  bool dims_seen = false, values_seen = false, stats_seen = false;
  bool layout_seen = false, records_seen = false, high_seen = false;
  std::span<const std::uint32_t> key_layout;
  std::uint64_t records_bytes = 0;

  for (std::uint64_t s = 0; s < num_segments; ++s) {
    const std::byte* e = table + s * kSegmentEntryBytes;
    const auto kind = load_le<std::uint32_t>(e);
    const auto param = load_le<std::uint32_t>(e + 4);
    const auto offset = load_le<std::uint64_t>(e + 8);
    const auto bytes = load_le<std::uint64_t>(e + 16);
    const auto checksum = load_le<std::uint64_t>(e + 24);

    if (offset % kSnapshotAlignment != 0) bad("misaligned segment");
    if (offset > file.size() || bytes > file.size() - offset) {
      bad("segment out of range (truncated file?)");
    }
    const std::byte* payload = file.data() + offset;
    if (verify_checksums &&
        checksum64(payload, static_cast<std::size_t>(bytes)) != checksum) {
      bad("checksum mismatch in segment " + std::to_string(s));
    }

    switch (static_cast<SegmentKind>(kind)) {
      case SegmentKind::kDims: {
        if (dims_seen || bytes != modes * sizeof(std::uint64_t)) {
          bad("bad dims segment");
        }
        dims_seen = true;
        view.dims.resize(static_cast<std::size_t>(modes));
        for (std::uint64_t m = 0; m < modes; ++m) {
          const auto d =
              load_le<std::uint64_t>(payload + m * sizeof(std::uint64_t));
          if (d > UINT32_MAX) bad("mode size exceeds 32-bit index space");
          view.dims[static_cast<std::size_t>(m)] =
              static_cast<index_t>(d);
        }
        break;
      }
      case SegmentKind::kIndices: {
        if (param >= modes || mode_seen[param] ||
            bytes != nnz * sizeof(index_t)) {
          bad("bad index segment");
        }
        mode_seen[param] = true;
        view.indices[param] = std::span<const index_t>(
            reinterpret_cast<const index_t*>(payload),
            static_cast<std::size_t>(nnz));
        break;
      }
      case SegmentKind::kValues: {
        if (values_seen || bytes != nnz * sizeof(value_t)) {
          bad("bad values segment");
        }
        values_seen = true;
        view.values = std::span<const value_t>(
            reinterpret_cast<const value_t*>(payload),
            static_cast<std::size_t>(nnz));
        break;
      }
      case SegmentKind::kShardRunStats: {
        if (stats_seen || bytes % sizeof(ShardRunStatsRecord) != 0) {
          bad("bad shard-run-stats segment");
        }
        stats_seen = true;
        view.shard_stats = std::span<const ShardRunStatsRecord>(
            reinterpret_cast<const ShardRunStatsRecord*>(payload),
            static_cast<std::size_t>(bytes) / sizeof(ShardRunStatsRecord));
        break;
      }
      case SegmentKind::kKeyLayout: {
        if (layout_seen || bytes != (2 + modes) * sizeof(std::uint32_t)) {
          bad("bad key-layout segment");
        }
        layout_seen = true;
        key_layout = std::span<const std::uint32_t>(
            reinterpret_cast<const std::uint32_t*>(payload),
            static_cast<std::size_t>(2 + modes));
        break;
      }
      case SegmentKind::kRecords: {
        if (records_seen) bad("bad records segment");
        records_seen = true;
        records_bytes = bytes;
        view.records = std::span<const std::byte>(
            payload, static_cast<std::size_t>(bytes));
        break;
      }
      case SegmentKind::kHighBits: {
        if (high_seen || bytes % sizeof(HighBitsSegment) != 0) {
          bad("bad high-bits segment");
        }
        high_seen = true;
        view.high_bits = std::span<const HighBitsSegment>(
            reinterpret_cast<const HighBitsSegment*>(payload),
            static_cast<std::size_t>(bytes) / sizeof(HighBitsSegment));
        break;
      }
      default:
        bad("unknown segment kind " + std::to_string(kind));
    }
  }
  if (!dims_seen) bad("missing segment");
  view.packed = layout_seen || records_seen || high_seen;
  if (!view.packed) {
    if (!values_seen) bad("missing segment");
    for (std::uint64_t m = 0; m < modes; ++m) {
      if (!mode_seen[static_cast<std::size_t>(m)]) {
        bad("missing index segment");
      }
    }
    return view;
  }
  if (values_seen || std::count(mode_seen.begin(), mode_seen.end(), true)) {
    bad("packed mode copy mixed with COO segments");
  }
  if (!layout_seen || !records_seen) bad("missing segment");
  validate_packed(view, key_layout, records_bytes, high_seen,
                  verify_checksums, bad);
  return view;
}

CooTensor read_snapshot_file(const std::string& path) {
  MappedFile file(path);
  if (file.size() >= 8 &&
      std::memcmp(file.data(), kSnapshotMagicV1, 8) == 0) {
    return read_binary_file(path);  // v1 compatibility
  }
  const auto view = parse_snapshot({file.data(), file.size()},
                                   /*verify_checksums=*/true, path);
  if (view.dims.empty()) return CooTensor{};
  if (view.packed) {
    return decode_records(
        {&view.layout, view.high_bits, view.records.data(), 0, view.nnz});
  }

  std::vector<std::vector<index_t>> cols;
  cols.reserve(view.indices.size());
  for (const auto& span : view.indices) {
    cols.emplace_back(span.begin(), span.end());
  }
  return CooTensor::from_parts(
      view.dims, std::move(cols),
      std::vector<value_t>(view.values.begin(), view.values.end()));
}

SnapshotLayout inspect_snapshot(const std::string& path) {
  MappedFile file(path);
  // Structure-only parse; payload checksums are the caller's business.
  parse_snapshot({file.data(), file.size()}, /*verify_checksums=*/false,
                 path);
  SnapshotLayout layout;
  layout.num_modes = load_le<std::uint64_t>(file.data() + 8);
  layout.nnz = load_le<std::uint64_t>(file.data() + 16);
  const auto num_segments = load_le<std::uint64_t>(file.data() + 24);
  const auto table_offset = load_le<std::uint64_t>(file.data() + 32);
  for (std::uint64_t s = 0; s < num_segments; ++s) {
    const std::byte* e = file.data() + table_offset + s * kSegmentEntryBytes;
    SnapshotSegmentInfo info;
    info.kind = static_cast<SegmentKind>(load_le<std::uint32_t>(e));
    info.param = load_le<std::uint32_t>(e + 4);
    info.offset = load_le<std::uint64_t>(e + 8);
    info.bytes = load_le<std::uint64_t>(e + 16);
    info.checksum = load_le<std::uint64_t>(e + 24);
    layout.segments.push_back(info);
  }
  return layout;
}

}  // namespace amped::io
