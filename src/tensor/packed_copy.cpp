#include "tensor/packed_copy.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace amped {

unsigned KeyLayout::key_bits_of(std::span<const index_t> dims) {
  unsigned bits = 0;
  for (index_t d : dims) bits += util::bits_for_bound(d);
  return bits;
}

KeyLayout::KeyLayout(std::span<const index_t> dims, std::size_t mode)
    : dims_(dims.begin(), dims.end()), mode_(mode) {
  assert(!dims.empty() && dims.size() <= kMaxModes && mode < dims.size());
  key_bits_ = key_bits_of(dims);
  low_bits_ = key_bits_ <= util::kMaxSplitKeyBits ? 32 : 64;
  // Fields from the least significant (the last mode in key order) up.
  const auto order = mode_major_order(dims.size(), mode);
  unsigned pos = 0;
  for (std::size_t k = order.size(); k-- > 0;) {
    const std::size_t m = order[k];
    const unsigned w = util::bits_for_bound(dims[m]);
    width_[m] = static_cast<std::uint8_t>(w);
    if (pos < low_bits_) {
      const unsigned low = std::min(w, low_bits_ - pos);
      shift_[m] = static_cast<std::uint8_t>(pos);
      mask_[m] = (std::uint64_t{1} << low) - 1;
    }
    if (pos + w > low_bits_) {
      const unsigned from = std::max(pos, low_bits_);
      hi_shift_[m] = static_cast<std::uint8_t>(from - low_bits_);
      hi_mask_[m] = (std::uint64_t{1} << (pos + w - from)) - 1;
      hi_at_[m] = static_cast<std::uint8_t>(from - pos);
    }
    pos += w;
  }
}

std::size_t RecordSpan::segment_of(nnz_t n) const {
  if (high.empty()) return 0;
  const auto it = std::upper_bound(
      high.begin(), high.end(), n,
      [](nnz_t pos, const HighBitsSegment& s) { return pos < s.first; });
  assert(it != high.begin() && "record before the first high-bits segment");
  return static_cast<std::size_t>(it - high.begin()) - 1;
}

RecordSpan RecordSpan::sub(nnz_t begin, nnz_t end) const {
  assert(base <= begin && begin <= end && end <= this->end());
  return {layout, high, record(begin), begin, end - begin};
}

CooTensor decode_records(const RecordSpan& span) {
  const KeyLayout& layout = *span.layout;
  const std::size_t modes = layout.num_modes();
  std::vector<std::vector<index_t>> cols(
      modes, std::vector<index_t>(static_cast<std::size_t>(span.count)));
  std::vector<value_t> vals(static_cast<std::size_t>(span.count));
  // Every mode's high part in the current segment.
  std::array<index_t, kMaxModes> hi{};
  std::size_t seg = span.segment_of(span.base);
  auto enter = [&] {
    for (std::size_t m = 0; m < modes; ++m) {
      hi[m] = layout.high_part(span.high[seg].high, m);
    }
  };
  if (!span.high.empty()) enter();
  for (nnz_t n = span.base; n < span.end(); ++n) {
    while (seg + 1 < span.high.size() && span.high[seg + 1].first <= n) {
      ++seg;
      enter();
    }
    const std::uint64_t low = span.low_key(n);
    const auto i = static_cast<std::size_t>(n - span.base);
    for (std::size_t m = 0; m < modes; ++m) {
      cols[m][i] = hi[m] | layout.low_part(low, m);
    }
    vals[i] = span.value(n);
  }
  return CooTensor::from_parts(layout.dims(), std::move(cols),
                               std::move(vals));
}

void RecordBuffer::reserve(std::size_t bytes) {
  if (bytes <= capacity_) return;
  data_.reset();  // free before growing
  data_.reset(new std::byte[bytes]);
  capacity_ = bytes;
  ++allocations_;
}

RecordSpan RecordBuffer::load(const RecordSpan& src, nnz_t begin,
                              nnz_t end) {
  const RecordSpan range = src.sub(begin, end);
  const std::size_t bytes = range.bytes();
  reserve(bytes);
  if (bytes != 0) std::memcpy(data_.get(), range.data, bytes);
  return {range.layout, range.high, data_.get(), begin, end - begin};
}

double records_norm_sq(const RecordSpan& span) {
  double acc = 0.0;
  for (nnz_t n = span.base; n < span.end(); ++n) {
    const value_t v = span.value(n);
    acc += static_cast<double>(v) * v;
  }
  return acc;
}

void PackedCopy::assign_sorted(
    std::span<const index_t> dims,
    std::span<const std::span<const index_t>> indices,
    std::span<const value_t> values, std::size_t mode) {
  assert(indices.size() == dims.size());
  layout_ = KeyLayout(dims, mode);
  const nnz_t n = values.size();
  const std::size_t bytes =
      static_cast<std::size_t>(n) * layout_.record_bytes();
  if (records_.size() != bytes) {
    records_ = util::LargeArray<std::byte>();  // free before reallocating
    records_ = util::LargeArray<std::byte>(bytes);
  }
  nnz_ = n;
  high_.clear();

  const auto order = mode_major_order(dims.size(), mode);
  std::vector<util::SortKeyColumn> columns;
  columns.reserve(order.size());
  for (std::size_t m : order) columns.push_back({indices[m], dims[m]});

  std::byte* const out = records_.get();
  const unsigned low_bits = layout_.low_bits();
  if (low_bits == 32) {
    auto* recs = reinterpret_cast<util::KeyValue32*>(out);
    if (!layout_.segmented()) {
      util::radix_sort_columns(columns, values, recs);
      return;
    }
    std::vector<util::KeyHighRun> runs;
    util::radix_sort_columns(columns, values, recs, runs);
    high_.reserve(runs.size());
    for (const auto& run : runs) high_.push_back({run.first, {run.high}});
    return;
  }
  if (!layout_.segmented()) {
    util::radix_sort_columns(columns, values,
                             reinterpret_cast<util::KeyValue64*>(out));
    return;
  }
  // Over 64 bits: the permutation sort's order, then each element's key
  // split into the record's low bits and its segment's high bits.
  const auto perm = util::lexicographic_sort_permutation(columns);
  auto* recs = reinterpret_cast<util::KeyValue64*>(out);
  for (nnz_t i = 0; i < n; ++i) {
    const nnz_t src = perm[i];
    std::uint64_t low = 0;
    HighBits high{};
    unsigned pos = 0;
    for (std::size_t k = columns.size(); k-- > 0;) {
      const std::uint64_t c = columns[k].keys[src];
      const unsigned w = layout_.width(order[k]);
      if (pos < low_bits) low |= c << pos;
      if (pos + w > low_bits) {
        // The field's bits from key bit `from` up, at high bit `at`; a
        // field of at most 32 bits straddles at most one word edge.
        const unsigned from = std::max(pos, low_bits);
        const unsigned at = from - low_bits;
        const std::uint64_t v = c >> (from - pos);
        high[at / 64] |= v << (at % 64);
        if (at % 64 + (pos + w - from) > 64) {
          high[at / 64 + 1] |= v >> (64 - at % 64);
        }
      }
      pos += w;
    }
    recs[i] = {low, std::bit_cast<std::uint32_t>(values[src]), 0};
    if (high_.empty() || high_.back().high != high) high_.push_back({i, high});
  }
}

}  // namespace amped
