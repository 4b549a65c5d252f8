// Fuzz-style robustness tests for the snapshot v2 reader: every header
// and segment-table byte of a valid .amptns file is bit-flipped, payload
// and checksum regions are corrupted, and the file is truncated at every
// interesting boundary. The same attacks hit the record form (a spilled
// packed mode copy), plus consistent-but-hostile key layouts and
// high-bits tables, each of which must fail naming its cause. The contract under attack is "clean error, never
// a crash": read_snapshot_file either succeeds (a flip in a reserved or
// redundant byte may be harmless) or throws std::runtime_error — it must
// never segfault, overflow, or read out of bounds. The ASan CI preset
// runs this suite, which is what turns "no crash observed" into "no UB
// observed".
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/mapped_tensor.hpp"
#include "io/snapshot.hpp"
#include "tensor/generator.hpp"
#include "tensor/packed_copy.hpp"

namespace amped {
namespace {

namespace fs = std::filesystem;

class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("amped_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    GeneratorOptions opt;
    opt.dims = {48, 32, 24};
    opt.nnz = 500;
    opt.zipf_exponents = {0.5, 0.5, 0.5};
    opt.seed = 99;
    auto tensor = generate_random(opt);
    tensor.sort_by_mode(0);

    // Include the optional run-stats segment so its parsing is attacked
    // too.
    std::vector<io::ShardRunStatsRecord> stats = {
        {0, 250, 40, 10}, {250, 500, 35, 12}};
    valid_path_ = (dir_ / "valid.amptns").string();
    io::write_snapshot_file(tensor, valid_path_, stats);

    std::ifstream in(valid_path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    valid_bytes_.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    ASSERT_GT(valid_bytes_.size(), 64u);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_corrupted(const std::vector<char>& bytes) const {
    const std::string path = (dir_ / "corrupt.amptns").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // The property under test: the reader finishes — success or a typed
  // error — and never escapes with a crash, UB, or a foreign exception.
  // Returns true when the file was rejected.
  static bool read_survives(const std::string& path, const std::string& what) {
    try {
      const CooTensor t = io::read_snapshot_file(path);
      // A successful read must at least be self-consistent.
      EXPECT_TRUE(t.num_modes() == 0 || t.indices_in_bounds()) << what;
      return false;
    } catch (const std::runtime_error&) {
      return true;  // the clean error the contract promises
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": non-runtime_error exception: " << e.what();
      return true;
    }
  }

  fs::path dir_;
  std::string valid_path_;
  std::vector<char> valid_bytes_;
};

TEST_F(SnapshotFuzzTest, ValidFileRoundTrips) {
  const CooTensor t = io::read_snapshot_file(valid_path_);
  EXPECT_EQ(t.nnz(), 500u);
  EXPECT_EQ(t.num_modes(), 3u);
}

TEST_F(SnapshotFuzzTest, EveryHeaderBitFlipIsHandled) {
  // All 512 single-bit corruptions of the 64-byte header.
  for (std::size_t byte = 0; byte < 64; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = valid_bytes_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      read_survives(write_corrupted(bytes),
                    "header byte " + std::to_string(byte) + " bit " +
                        std::to_string(bit));
    }
  }
}

TEST_F(SnapshotFuzzTest, EverySegmentTableBitFlipIsRejected) {
  const auto layout = io::inspect_snapshot(valid_path_);
  const std::size_t table_bytes = layout.segments.size() * 40;
  ASSERT_EQ(layout.segments.size(), 6u);  // dims + 3 indices + values + stats
  for (std::size_t byte = 64; byte < 64 + table_bytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = valid_bytes_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      // The table is covered end-to-end by the header's table checksum,
      // so every single-bit flip must be rejected, reserved bytes
      // included.
      EXPECT_TRUE(read_survives(
          write_corrupted(bytes),
          "table byte " + std::to_string(byte) + " bit " +
              std::to_string(bit)))
          << "segment-table flip at byte " << byte << " bit " << bit
          << " was not detected";
    }
  }
}

TEST_F(SnapshotFuzzTest, PayloadCorruptionIsRejectedByChecksums) {
  // Flip a bit at the start, middle, and end of every segment payload:
  // each must trip that segment's checksum.
  const auto layout = io::inspect_snapshot(valid_path_);
  for (std::size_t s = 0; s < layout.segments.size(); ++s) {
    const auto& seg = layout.segments[s];
    if (seg.bytes == 0) continue;
    for (std::uint64_t rel : {std::uint64_t{0}, seg.bytes / 2,
                              seg.bytes - 1}) {
      auto bytes = valid_bytes_;
      const std::size_t pos = static_cast<std::size_t>(seg.offset + rel);
      ASSERT_LT(pos, bytes.size());
      bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
      EXPECT_TRUE(read_survives(write_corrupted(bytes),
                                "segment " + std::to_string(s) + " offset " +
                                    std::to_string(rel)))
          << "payload corruption in segment " << s << " at +" << rel
          << " was not detected";
    }
  }
}

TEST_F(SnapshotFuzzTest, TruncationAtEveryBoundaryIsRejected) {
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 63, 64, 65};
  const auto layout = io::inspect_snapshot(valid_path_);
  for (const auto& seg : layout.segments) {
    lengths.push_back(static_cast<std::size_t>(seg.offset));
    lengths.push_back(static_cast<std::size_t>(seg.offset + 1));
    if (seg.bytes > 0) {
      lengths.push_back(static_cast<std::size_t>(seg.offset + seg.bytes - 1));
    }
  }
  lengths.push_back(valid_bytes_.size() - 1);
  for (std::size_t len : lengths) {
    if (len >= valid_bytes_.size()) continue;
    auto bytes = valid_bytes_;
    bytes.resize(len);
    EXPECT_TRUE(read_survives(write_corrupted(bytes),
                              "truncated to " + std::to_string(len)))
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST_F(SnapshotFuzzTest, GrowingGarbageTailIsHandled) {
  // Trailing garbage after the last segment: the reader may ignore or
  // reject it, but must not misparse.
  auto bytes = valid_bytes_;
  bytes.insert(bytes.end(), 256, static_cast<char>(0xAB));
  read_survives(write_corrupted(bytes), "garbage tail");
}

TEST_F(SnapshotFuzzTest, AdversarialHeaderFieldValues) {
  // Targeted overwrites of whole header fields with hostile values:
  // extreme counts and offsets whose byte products overflow u64 or point
  // far outside the file.
  struct Case {
    std::size_t offset;  // header field position
    std::uint64_t value;
  };
  const Case cases[] = {
      {8, 0},                     // num_modes = 0
      {8, UINT64_MAX},            // num_modes astronomical
      {8, 1u << 20},              // num_modes large but plausible-ish
      {16, UINT64_MAX},           // nnz overflows any size computation
      {16, UINT64_MAX / 4},       // nnz * 4 overflows
      {24, 0},                    // no segments
      {24, UINT64_MAX},           // segment count overflows table size
      {24, 1u << 24},             // table larger than the file
      {32, 0},                    // table at offset 0 (inside header)
      {32, UINT64_MAX},           // table offset out of range
      {32, UINT64_MAX - 39},      // offset + entry size wraps
  };
  for (const auto& c : cases) {
    auto bytes = valid_bytes_;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[c.offset + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
    }
    read_survives(write_corrupted(bytes),
                  "field@" + std::to_string(c.offset) + "=" +
                      std::to_string(c.value));
  }
}

TEST_F(SnapshotFuzzTest, AdversarialSegmentEntryValues) {
  // Hostile segment-table entries with the table checksum recomputed so
  // the entry itself is what the reader must survive (the previous tests
  // prove a *stale* checksum is caught; this one proves a *consistent*
  // but malicious table cannot cause UB either).
  const auto layout = io::inspect_snapshot(valid_path_);
  const std::size_t table_off = 64;
  const std::size_t entry_bytes = 40;
  const std::size_t table_bytes = layout.segments.size() * entry_bytes;
  struct Case {
    std::size_t entry;
    std::size_t field_off;  // within the entry
    std::uint64_t value;
    std::size_t field_size;
  };
  const Case cases[] = {
      {0, 0, 7, 4},                    // unknown segment kind
      {1, 4, 1u << 20, 4},             // indices segment for absurd mode
      {0, 8, UINT64_MAX, 8},           // offset out of file
      {0, 8, UINT64_MAX - 8, 8},       // offset + bytes wraps
      {0, 16, UINT64_MAX, 8},          // bytes out of file
      {2, 16, 3, 8},                   // bytes not a multiple of the type
      {0, 8, 1, 8},                    // misaligned offset
  };
  for (const auto& c : cases) {
    auto bytes = valid_bytes_;
    const std::size_t pos = table_off + c.entry * entry_bytes + c.field_off;
    for (std::size_t i = 0; i < c.field_size; ++i) {
      bytes[pos + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
    }
    // Recompute the header's table checksum over the altered table.
    const std::uint64_t sum =
        io::checksum64(bytes.data() + table_off, table_bytes);
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[40 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
    EXPECT_TRUE(read_survives(write_corrupted(bytes),
                              "entry " + std::to_string(c.entry) + " field+" +
                                  std::to_string(c.field_off)))
        << "malicious entry " << c.entry << " field+" << c.field_off
        << " value " << c.value << " was accepted";
  }
}

// ---------------------------------------------------------------------------
// Record form: a packed mode copy as a spill file writes it.

class RecordSnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("amped_record_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    // 66-bit keys (an extent-2 output mode and five of 8192): 16-byte
    // records and a high-bits table with several segments.
    GeneratorOptions opt;
    opt.dims = {2, 8192, 8192, 8192, 8192, 8192};
    opt.nnz = 400;
    opt.zipf_exponents.assign(6, 0.3);
    opt.seed = 5;
    tensor_ = generate_random(opt);
    copy_ = pack(tensor_);
    ASSERT_TRUE(copy_.layout().segmented());
    ASSERT_GE(copy_.high_bits().size(), 3u);
    const std::vector<io::ShardRunStatsRecord> stats = {{0, 400, 2, 200}};
    valid_path_ = (dir_ / "valid.amptns").string();
    io::write_snapshot_file(copy_, valid_path_, stats);
    valid_bytes_ = read_bytes(valid_path_);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static PackedCopy pack(const CooTensor& t) {
    std::vector<std::span<const index_t>> cols;
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      cols.push_back(t.indices(m));
    }
    PackedCopy copy;
    copy.assign_sorted(t.dims(), cols, t.values(), 0);
    return copy;
  }

  static std::vector<char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string write_corrupted(const std::vector<char>& bytes) const {
    const std::string path = (dir_ / "corrupt.amptns").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  // Maps the file with every check on. Returns the error text, or "" when
  // the file was accepted (then its records must decode within the dims).
  static std::string open_error(const std::string& path,
                                const std::string& what) {
    try {
      const io::MappedRecordCopy map(path);
      const CooTensor t = decode_records(map.span());
      EXPECT_TRUE(t.indices_in_bounds()) << what;
      return "";
    } catch (const std::runtime_error& e) {
      return e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": non-runtime_error exception: " << e.what();
      return e.what();
    }
  }

  // Index of the table entry of segment kind `kind`.
  std::size_t entry_of(io::SegmentKind kind) const {
    const auto layout = io::inspect_snapshot(valid_path_);
    for (std::size_t i = 0; i < layout.segments.size(); ++i) {
      if (layout.segments[i].kind == kind) return i;
    }
    ADD_FAILURE() << "no segment of kind " << static_cast<int>(kind);
    return 0;
  }

  // `bytes` with `patch` applied to segment `entry`'s payload at `rel`,
  // and that segment's checksum and the table checksum recomputed: a
  // consistent file whose content is hostile.
  std::vector<char> patched(std::size_t entry, std::size_t rel,
                            const void* patch, std::size_t len) const {
    return patched(valid_bytes_, entry, rel, patch, len);
  }
  // The same patch applied to `bytes`, a patched copy of the valid file.
  std::vector<char> patched(std::vector<char> bytes, std::size_t entry,
                            std::size_t rel, const void* patch,
                            std::size_t len) const {
    const auto seg = io::inspect_snapshot(valid_path_).segments[entry];
    std::memcpy(bytes.data() + seg.offset + rel, patch, len);
    const std::uint64_t sum = io::checksum64(
        bytes.data() + seg.offset, static_cast<std::size_t>(seg.bytes));
    std::memcpy(bytes.data() + 64 + entry * 40 + 24, &sum, sizeof sum);
    std::uint64_t segments = 0;
    std::memcpy(&segments, bytes.data() + 24, sizeof segments);
    const std::uint64_t table =
        io::checksum64(bytes.data() + 64, static_cast<std::size_t>(segments) * 40);
    std::memcpy(bytes.data() + 40, &table, sizeof table);
    return bytes;
  }

  // Makes `copy`'s spill file the valid file the patches start from.
  void use_copy(const PackedCopy& copy, const std::string& name) {
    valid_path_ = (dir_ / name).string();
    io::write_snapshot_file(copy, valid_path_);
    valid_bytes_ = read_bytes(valid_path_);
  }

  // A patched file's error must contain `cause`.
  void expect_cause(const std::vector<char>& bytes, const std::string& cause) {
    const std::string error = open_error(write_corrupted(bytes), cause);
    EXPECT_NE(error.find(cause), std::string::npos)
        << "want \"" << cause << "\", got \"" << error << "\"";
  }

  fs::path dir_;
  CooTensor tensor_;
  PackedCopy copy_;
  std::string valid_path_;
  std::vector<char> valid_bytes_;
};

TEST_F(RecordSnapshotFuzzTest, ValidFileMapsAndDecodesToTheCopy) {
  const io::MappedRecordCopy map(valid_path_);
  EXPECT_EQ(map.layout(), copy_.layout());
  ASSERT_EQ(map.nnz(), copy_.nnz());
  EXPECT_EQ(0, std::memcmp(map.span().data, copy_.bytes().data(),
                           copy_.bytes().size()));
  const CooTensor a = decode_records(map.span());
  const CooTensor b = decode_records(copy_.span());
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    EXPECT_TRUE(std::equal(a.indices(m).begin(), a.indices(m).end(),
                           b.indices(m).begin()));
  }
  // The COO reader decodes it; the COO mapper refuses it by name.
  EXPECT_EQ(io::read_snapshot_file(valid_path_).nnz(), copy_.nnz());
  EXPECT_THROW(io::MappedCooTensor{valid_path_}, std::runtime_error);
}

TEST_F(RecordSnapshotFuzzTest, EveryHeaderAndTableBitFlipIsHandled) {
  const std::size_t table_end =
      64 + io::inspect_snapshot(valid_path_).segments.size() * 40;
  for (std::size_t byte = 0; byte < table_end; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bytes = valid_bytes_;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      const std::string what =
          "byte " + std::to_string(byte) + " bit " + std::to_string(bit);
      const std::string error = open_error(write_corrupted(bytes), what);
      // The table is covered by the header's checksum: any flip in it
      // must be caught.
      if (byte >= 64) {
        EXPECT_FALSE(error.empty()) << what << " accepted";
      }
    }
  }
}

TEST_F(RecordSnapshotFuzzTest, PayloadBitFlipsAreRejectedByChecksums) {
  const auto layout = io::inspect_snapshot(valid_path_);
  for (std::size_t s = 0; s < layout.segments.size(); ++s) {
    const auto& seg = layout.segments[s];
    for (std::uint64_t rel : {std::uint64_t{0}, seg.bytes / 2,
                              seg.bytes - 1}) {
      auto bytes = valid_bytes_;
      bytes[seg.offset + rel] = static_cast<char>(bytes[seg.offset + rel] ^ 4);
      const std::string error = open_error(
          write_corrupted(bytes), "segment " + std::to_string(s));
      EXPECT_NE(error.find("checksum mismatch"), std::string::npos)
          << "segment " << s << " +" << rel << ": " << error;
    }
  }
}

TEST_F(RecordSnapshotFuzzTest, TruncationAtEveryBoundaryIsRejected) {
  std::vector<std::size_t> lengths = {0, 8, 63, 64, 65};
  for (const auto& seg : io::inspect_snapshot(valid_path_).segments) {
    lengths.push_back(static_cast<std::size_t>(seg.offset));
    lengths.push_back(static_cast<std::size_t>(seg.offset + seg.bytes - 1));
  }
  for (const std::size_t len : lengths) {
    if (len >= valid_bytes_.size()) continue;
    auto bytes = valid_bytes_;
    bytes.resize(len);
    EXPECT_FALSE(open_error(write_corrupted(bytes),
                            "truncated to " + std::to_string(len))
                     .empty())
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST_F(RecordSnapshotFuzzTest, KeyLayoutWidthsBeyondTheKeyNameTheCause) {
  const std::size_t entry = entry_of(io::SegmentKind::kKeyLayout);
  // Layout payload: u32 mode, u32 record bytes, then a u32 width per mode.
  struct Case {
    std::size_t rel;
    std::vector<std::uint32_t> words;
    const char* cause;
  };
  const Case cases[] = {
      // Six 60-bit fields: 360 bits, past a 16-byte record's low 64 bits
      // plus the high words of a segment.
      {8,
       {60, 60, 60, 60, 60, 60},
       "key layout widths sum to 360 bits, more than the 256-bit key"},
      // One field wider than its extent needs (13 -> 14 bits).
      {12, {14}, "key layout gives mode 1 14 bits"},
      // 8-byte records, even with a high-bits table, cannot hold this
      // copy's 66-bit key.
      {4, {8}, "more than the 40-bit key of 8-byte records"},
      {4, {12}, "record width 12 is not 8 or 16"},
      {0, {9}, "key layout names no mode"},
  };
  for (const auto& c : cases) {
    const std::string error = open_error(
        write_corrupted(patched(entry, c.rel, c.words.data(),
                                c.words.size() * sizeof(std::uint32_t))),
        c.cause);
    EXPECT_NE(error.find(c.cause), std::string::npos)
        << "want \"" << c.cause << "\", got \"" << error << "\"";
  }
}

TEST_F(RecordSnapshotFuzzTest, OutOfOrderHighBitsTableNamesTheCause) {
  const std::size_t entry = entry_of(io::SegmentKind::kHighBits);
  const auto high = copy_.high_bits();
  // Segments 1 and 2 swapped: entry 1 still follows entry 0, entry 2 then
  // goes back in both first position and high bits.
  const HighBitsSegment swapped[2] = {high[2], high[1]};
  std::string error = open_error(
      write_corrupted(patched(entry, sizeof(HighBitsSegment), swapped,
                              sizeof swapped)),
      "swap");
  EXPECT_NE(error.find("high-bits segment table out of order at entry 2"),
            std::string::npos)
      << error;
  // A first segment that does not start at record 0.
  const std::uint64_t first = 1;
  error = open_error(
      write_corrupted(patched(entry, 0, &first, sizeof first)), "first");
  EXPECT_NE(error.find("out of order at entry 0"), std::string::npos)
      << error;
  // High bits past the key's 66 bits: in the first high word, and in a
  // word the key does not reach.
  const std::uint64_t wide = 4;
  error = open_error(
      write_corrupted(patched(entry, 8, &wide, sizeof wide)), "wide");
  EXPECT_NE(error.find("exceed the 66-bit key"), std::string::npos) << error;
  const std::uint64_t stray = 1;
  error = open_error(
      write_corrupted(patched(entry, 16, &stray, sizeof stray)), "stray");
  EXPECT_NE(error.find("exceed the 66-bit key"), std::string::npos) << error;
}

TEST_F(RecordSnapshotFuzzTest, CoordinatesBeyondTheExtentNameTheCause) {
  // Extents 5 and 6 take 3 bits each: an all-ones 8-byte record decodes to
  // (7, 7), which the verified reader must refuse.
  GeneratorOptions opt;
  opt.dims = {5, 6};
  opt.nnz = 20;
  opt.zipf_exponents = {0.0, 0.0};
  opt.seed = 3;
  const PackedCopy small = pack(generate_random(opt));
  ASSERT_EQ(small.layout().record_bytes(), 8u);
  use_copy(small, "small.amptns");
  const std::uint32_t all_ones = 0xffffffffu;
  const std::string error = open_error(
      write_corrupted(patched(entry_of(io::SegmentKind::kRecords), 0,
                              &all_ones, sizeof all_ones)),
      "all-ones key");
  EXPECT_NE(error.find("record 0 has mode 0 coordinate beyond its extent"),
            std::string::npos)
      << error;
}

// The 8-byte record form with a table: 38-bit keys (the Amazon 1/500
// shape) keep their low 32 bits in the records and 6 high bits per
// segment. The file maps back to the copy, and each inconsistency between
// layout and table names its cause.
TEST_F(RecordSnapshotFuzzTest, EightByteRecordsWithATableNameEachCause) {
  GeneratorOptions opt;
  opt.dims = {9600, 3600, 3600};
  opt.nnz = 400;
  opt.zipf_exponents = {0.3, 0.3, 0.3};
  opt.seed = 7;
  const PackedCopy split = pack(generate_random(opt));
  ASSERT_EQ(split.layout().record_bytes(), 8u);
  ASSERT_TRUE(split.layout().segmented());
  ASSERT_GE(split.high_bits().size(), 3u);
  use_copy(split, "split.amptns");
  {
    const io::MappedRecordCopy map(valid_path_);
    EXPECT_EQ(map.layout(), split.layout());
    ASSERT_EQ(map.nnz(), split.nnz());
    EXPECT_EQ(0, std::memcmp(map.span().data, split.bytes().data(),
                             split.bytes().size()));
    ASSERT_EQ(map.span().high.size(), split.high_bits().size());
    EXPECT_EQ(0, std::memcmp(map.span().high.data(), split.high_bits().data(),
                             split.high_bits().size_bytes()));
    EXPECT_EQ(open_error(valid_path_, "valid"), "");
  }
  const std::size_t table = entry_of(io::SegmentKind::kHighBits);
  const std::size_t dims = entry_of(io::SegmentKind::kDims);
  const std::size_t key_layout = entry_of(io::SegmentKind::kKeyLayout);

  // Out of order: segments 1 and 2 swapped.
  const auto high = split.high_bits();
  const HighBitsSegment swapped[2] = {high[2], high[1]};
  expect_cause(patched(table, sizeof(HighBitsSegment), swapped,
                       sizeof swapped),
               "high-bits segment table out of order at entry 2");
  // High bits past the key: bit 6 of the high word is key bit 38.
  const std::uint64_t past = high[0].high[0] | (std::uint64_t{1} << 6);
  expect_cause(patched(table, 8, &past, sizeof past),
               "high bits of entry 0 exceed the 38-bit key");
  // A table on a key of 32 bits or less: mode 0's extent 9600 -> 64 and
  // its width 14 -> 6 make a consistent 30-bit key.
  const std::uint64_t extent = 64;
  const std::uint32_t width = 6;
  expect_cause(patched(patched(dims, 0, &extent, sizeof extent), key_layout,
                       8, &width, sizeof width),
               "high-bits segment on a 30-bit key, which 8-byte records "
               "hold whole");

  // A missing table on a 33..40-bit key: an 8-byte copy without one whose
  // mode 1 extent 6 -> 2^31 (3 -> 31 bits) makes a consistent 34-bit key.
  opt.dims = {5, 6};
  opt.zipf_exponents = {0.0, 0.0};
  const PackedCopy small = pack(generate_random(opt));
  ASSERT_FALSE(small.layout().segmented());
  use_copy(small, "small.amptns");
  const std::uint64_t wide = std::uint64_t{1} << 31;
  const std::uint32_t wide_bits = 31;
  expect_cause(patched(patched(entry_of(io::SegmentKind::kDims), 8, &wide,
                               sizeof wide),
                       entry_of(io::SegmentKind::kKeyLayout), 12, &wide_bits,
                       sizeof wide_bits),
               "missing high-bits segment: the 34-bit key needs one with "
               "8-byte records");
}

}  // namespace
}  // namespace amped
