// Packed mode copies: one AMPED mode copy as the sorted record array the
// radix sort emits (util/radix_sort.hpp), kept as it is from the sort to
// the kernel.
//
// A mode-d copy orders its elements by the mode-major key: mode d's index
// in the most significant bits, then the other modes ascending, each in
// bits_for_bound(dim) bits. The records carry that key and the bits of the
// element's value:
//
//   key bits   record       bytes/nnz
//   <= 32      KeyValue32   8    (u32 key, u32 value bits)
//   33..40     KeyValue32   8    (low 32 key bits) + a high-bits table
//   41..64     KeyValue64   16   (u64 key, u32 value bits, u32 pad)
//   65..256    KeyValue64   16   (low 64 key bits) + a high-bits table
//
// The rule is fixed by the key width (KeyLayout::low_bits()). A record
// keeps the low 32 or 64 key bits. The bits above are monotone along a
// sorted copy, so the copy keeps them once per run of equal high bits: a
// table of (first record, high bits) segments, as BLCO (formats/blco.hpp)
// keeps one high-bits word per block. A 33..40-bit key has at most 8 high
// bits, so at most 256 segments (Amazon at 1/500, 38 bits: at most 64);
// that is as wide as one digit of the radix sort, which makes the table
// from its first-level buckets. Decoding a coordinate is then
//
//   coord = high_part(segment high bits) | ((low key >> shift) & mask)
//
// with copy-level shifts and masks, so a kernel decodes every coordinate
// in registers. A segment holds up to three high words, enough for the
// widest key the format admits (kMaxModes modes of 32 bits); keys up to
// 128 bits (full-scale Amazon and Twitch) use only the first. Past 128
// bits the high bits reach below the leading mode's field and segments
// get short, up to one per record.
//
// Lifecycle: PackedCopy::assign_sorted sorts into the copy's own record
// array; a spilled copy writes the same bytes as one snapshot segment
// (io/snapshot.hpp); a RecordSpan is any contiguous range of records (the
// resident copy, a spilled copy's mapping, a stream slot, a lane's staged
// buffer), and the EC kernel reads it directly (core/ec_kernel.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "util/radix_sort.hpp"

namespace amped {

// Key bits from the record's low bits (32 or 64) up, least significant
// word first: enough words for the widest key, kMaxModes fields of at most
// 32 bits above 64.
inline constexpr std::size_t kHighWords = (kMaxModes * 32 - 64 + 63) / 64;
using HighBits = std::array<std::uint64_t, kHighWords>;

// True when `a` is below `b` as one number (most significant word first).
inline bool high_less(const HighBits& a, const HighBits& b) {
  return std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                      b.rend());
}

// The high bits shared by records [first, next segment's first) of a copy
// whose key exceeds its records' low bits. `first` is an absolute record
// position in the copy. On disk as 1 + kHighWords little-endian u64.
struct HighBitsSegment {
  std::uint64_t first = 0;
  HighBits high{};
};
static_assert(sizeof(HighBitsSegment) == 8 * (1 + kHighWords));

// How the records of one mode copy encode an element: which bits of the
// key hold each mode's coordinate, and the record width.
class KeyLayout {
 public:
  static constexpr unsigned kMaxKeyBits = 64 * (1 + kHighWords);
  static_assert(kMaxModes * 32 <= kMaxKeyBits);

  KeyLayout() = default;
  // The mode-major layout of a copy sorted by `mode` of a tensor with
  // `dims` (at most kMaxModes).
  KeyLayout(std::span<const index_t> dims, std::size_t mode);

  // Packed key bits of `dims` (any mode order: the sum of the widths).
  static unsigned key_bits_of(std::span<const index_t> dims);

  std::size_t num_modes() const { return dims_.size(); }
  const std::vector<index_t>& dims() const { return dims_; }
  std::size_t mode() const { return mode_; }
  unsigned key_bits() const { return key_bits_; }
  // Key bits a record holds: 32 (8-byte records) for keys up to
  // kMaxSplitKeyBits, 64 (16-byte records) above. Bits past them go to
  // the high-bits table.
  unsigned low_bits() const { return low_bits_; }
  // Bits of mode m's field in the key.
  unsigned width(std::size_t m) const { return width_[m]; }
  std::size_t record_bytes() const { return low_bits_ == 32 ? 8 : 16; }
  // The bytes per nonzero that pricing and the host memory budget charge
  // a copy of `num_modes` modes: its COO size, not record_bytes() (see
  // core/amped_tensor.hpp for why).
  static std::size_t charged_bytes_per_nnz(std::size_t num_modes) {
    return num_modes * sizeof(index_t) + sizeof(value_t);
  }
  // Byte offset of the value bits inside a record.
  std::size_t value_offset() const { return low_bits_ / 8; }
  // True when the copy needs a high-bits table (key over low_bits()).
  bool segmented() const { return key_bits_ > low_bits_; }

  // Mode m's field inside the low key bits: (low >> shift) & mask.
  unsigned shift(std::size_t m) const { return shift_[m]; }
  std::uint64_t mask(std::size_t m) const { return mask_[m]; }
  // Mode m's bits that live in the high bits, in coordinate position: the
  // hi_mask bits at bit hi_shift of the high words, shifted up by hi_at
  // (0 for a field that lies wholly in the low bits). A field may
  // straddle two high words.
  index_t high_part(const HighBits& high, std::size_t m) const {
    const unsigned word = hi_shift_[m] / 64;
    const unsigned bit = hi_shift_[m] % 64;
    std::uint64_t v = high[word] >> bit;
    if (bit != 0 && word + 1 < kHighWords) v |= high[word + 1] << (64 - bit);
    return static_cast<index_t>((v & hi_mask_[m]) << hi_at_[m]);
  }
  // Mode m's bits inside the low key bits. A coordinate is
  // high_part(segment, m) | low_part(low key, m); the high part changes
  // only at segment edges, so loops compute it once per segment.
  index_t low_part(std::uint64_t low, std::size_t m) const {
    return static_cast<index_t>((low >> shift_[m]) & mask_[m]);
  }

  friend bool operator==(const KeyLayout& a, const KeyLayout& b) {
    return a.dims_ == b.dims_ && a.mode_ == b.mode_;
  }

 private:
  std::vector<index_t> dims_;
  std::size_t mode_ = 0;
  unsigned key_bits_ = 0;
  unsigned low_bits_ = 32;
  std::array<std::uint8_t, kMaxModes> width_{};
  std::array<std::uint8_t, kMaxModes> shift_{};
  std::array<std::uint64_t, kMaxModes> mask_{};
  std::array<std::uint8_t, kMaxModes> hi_shift_{};
  std::array<std::uint64_t, kMaxModes> hi_mask_{};
  std::array<std::uint8_t, kMaxModes> hi_at_{};
};

// A contiguous range of one copy's records: record `base + i` of the copy
// is at data + i * record_bytes. `high` is the copy's whole high-bits
// table (empty unless the layout is segmented); spans never own.
struct RecordSpan {
  const KeyLayout* layout = nullptr;
  std::span<const HighBitsSegment> high;
  const std::byte* data = nullptr;
  nnz_t base = 0;
  nnz_t count = 0;

  nnz_t end() const { return base + count; }
  std::size_t bytes() const {
    return static_cast<std::size_t>(count) * layout->record_bytes();
  }
  const std::byte* record(nnz_t n) const {
    return data + static_cast<std::size_t>(n - base) * layout->record_bytes();
  }
  // The low key bits of record n (absolute position).
  std::uint64_t low_key(nnz_t n) const {
    const std::byte* r = record(n);
    if (layout->record_bytes() == 8) {
      std::uint32_t k = 0;
      std::memcpy(&k, r, sizeof k);
      return k;
    }
    std::uint64_t k = 0;
    std::memcpy(&k, r, sizeof k);
    return k;
  }
  value_t value(nnz_t n) const {
    value_t v = 0;
    std::memcpy(&v, record(n) + layout->value_offset(), sizeof v);
    return v;
  }
  // Index into `high` of the segment holding record n (0 when unsegmented).
  std::size_t segment_of(nnz_t n) const;
  // Records [begin, end) (absolute, within this span).
  RecordSpan sub(nnz_t begin, nnz_t end) const;
};

// Calls fn(n, index) with the output-mode index of every record n in
// [begin, end) of `span`, in order, looking each high-bits segment up once.
template <typename Fn>
void for_each_output_index(const RecordSpan& span, nnz_t begin, nnz_t end,
                           Fn&& fn) {
  const KeyLayout& layout = *span.layout;
  const std::size_t m = layout.mode();
  if (begin >= end) return;
  std::size_t seg = span.segment_of(begin);
  index_t hi = 0;
  nnz_t seg_end = end;
  auto enter = [&] {
    if (span.high.empty()) return;
    hi = layout.high_part(span.high[seg].high, m);
    seg_end = seg + 1 < span.high.size()
                  ? std::min<nnz_t>(end, span.high[seg + 1].first)
                  : end;
  };
  enter();
  const unsigned shift = layout.shift(m);
  const std::uint64_t mask = layout.mask(m);
  for (nnz_t n = begin; n < end;) {
    for (; n < seg_end; ++n) {
      fn(n, hi | static_cast<index_t>((span.low_key(n) >> shift) & mask));
    }
    if (n < end) {
      ++seg;
      enter();
    }
  }
}

// Every record of `span` decoded into a COO tensor, in record order.
CooTensor decode_records(const RecordSpan& span);

// A reusable home for one range of records: a stream slot's buffer, a
// lane's staged shard. load() is one memcpy, and allocates only when the
// range is larger than the buffer; an owner that knows its largest range
// reserves it once, and then never allocates again.
class RecordBuffer {
 public:
  // Grows the buffer to at least `bytes` (one allocation, contents not
  // kept); does nothing when it already holds that many.
  void reserve(std::size_t bytes);
  // Copies records [begin, end) of `src` (absolute positions within it)
  // into this buffer and returns the span over the copy, valid until the
  // next load.
  RecordSpan load(const RecordSpan& src, nnz_t begin, nnz_t end);
  std::size_t capacity_bytes() const { return capacity_; }
  // Heap allocations this buffer has made: owners report the growth of
  // this count as a metric, the deterministic measure of staging
  // allocations.
  std::uint64_t allocations() const { return allocations_; }

 private:
  std::unique_ptr<std::byte[]> data_;
  std::size_t capacity_ = 0;
  std::uint64_t allocations_ = 0;
};

// One sorted mode copy as its owned record array.
class PackedCopy {
 public:
  PackedCopy() = default;
  PackedCopy(PackedCopy&&) noexcept = default;
  PackedCopy& operator=(PackedCopy&&) noexcept = default;

  // Makes this the mode-`mode` copy of the elements given by `indices`
  // (one column per mode, owned or memory-mapped) and `values`: a stable
  // sort by the mode-major key into records. Up to 64 key bits the radix
  // sort scatters straight into this copy's record array, which is reused
  // when its size already matches (a build that sorts every mode of one
  // input into the same copy allocates once); for 33..40 bits it also
  // gives the high-bits table. Wider keys take the permutation sort
  // CooTensor uses for them (util::lexicographic_sort_permutation, one
  // radix sort per 64-bit column group), then records and the high-bits
  // table are written in sorted order.
  void assign_sorted(std::span<const index_t> dims,
                     std::span<const std::span<const index_t>> indices,
                     std::span<const value_t> values, std::size_t mode);

  const KeyLayout& layout() const { return layout_; }
  nnz_t nnz() const { return nnz_; }
  std::span<const HighBitsSegment> high_bits() const { return high_; }
  std::span<const std::byte> bytes() const {
    return {records_.get(),
            static_cast<std::size_t>(nnz_) * layout_.record_bytes()};
  }
  // The whole copy.
  RecordSpan span() const {
    return {&layout_, high_, records_.get(), 0, nnz_};
  }

 private:
  KeyLayout layout_;
  nnz_t nnz_ = 0;
  std::vector<HighBitsSegment> high_;
  util::LargeArray<std::byte> records_;
};

// The Frobenius norm squared of the values of `span`, accumulated in
// record order (double, as tensor_norm_sq accumulates a COO tensor).
double records_norm_sq(const RecordSpan& span);

}  // namespace amped
