#include "formats/blco.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "formats/sorting.hpp"

namespace amped::formats {

namespace {

key128_t full_key(const CooTensor& t, nnz_t e,
                  std::span<const unsigned> bits) {
  key128_t key = 0;
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    key = (key << bits[m]) | t.indices(m)[e];
  }
  return key;
}
}  // namespace

BlcoTensor BlcoTensor::build(const CooTensor& t, nnz_t max_block_elems) {
  assert(max_block_elems >= 1);
  BlcoTensor out;
  out.dims_ = t.dims();
  out.bits_ = mode_bits(t.dims());
  out.mode_order_.resize(t.num_modes());
  std::iota(out.mode_order_.begin(), out.mode_order_.end(), std::size_t{0});

  unsigned total_bits = 0;
  for (unsigned b : out.bits_) total_bits += b;
  assert(total_bits <= 128 && "tensor index space exceeds 128-bit keys");
  out.low_bits_total_ = std::min(64u, total_bits);

  // Sort by the full linearised key: the lexicographic key of the
  // identity mode order, radix sorted at any width (formats/sorting.hpp).
  // Each element's key is linearised again as the sorted order reads it.
  const auto perm = lexicographic_permutation(t, out.mode_order_);

  out.keys_.resize(t.nnz());
  out.values_.resize(t.nnz());
  const key128_t low_mask =
      out.low_bits_total_ == 64 ? ~key128_t{0} >> 64
                                : ((key128_t{1} << out.low_bits_total_) - 1);

  std::uint64_t prev_high = 0;
  for (nnz_t i = 0; i < perm.size(); ++i) {
    const key128_t key = full_key(t, perm[i], out.bits_);
    const auto high = static_cast<std::uint64_t>(key >> out.low_bits_total_);
    out.keys_[i] = static_cast<std::uint64_t>(key & low_mask);
    out.values_[i] = t.values()[perm[i]];

    const bool boundary =
        out.blocks_.empty() || high != prev_high ||
        (i - out.blocks_.back().begin) >= max_block_elems;
    if (boundary) {
      if (!out.blocks_.empty()) out.blocks_.back().end = i;
      out.blocks_.push_back(Block{.high_bits = high, .begin = i, .end = i});
      prev_high = high;
    }
  }
  if (!out.blocks_.empty()) out.blocks_.back().end = perm.size();
  return out;
}

std::uint64_t BlcoTensor::storage_bytes() const {
  return keys_.size() * sizeof(std::uint64_t) +
         values_.size() * sizeof(value_t) +
         blocks_.size() * (sizeof(std::uint64_t) + 2 * sizeof(nnz_t));
}

void BlcoTensor::coords_of(nnz_t e, std::span<index_t> out) const {
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), e,
      [](nnz_t v, const Block& b) { return v < b.begin; });
  assert(it != blocks_.begin());
  const Block& b = *(it - 1);
  key128_t key = (key128_t{b.high_bits} << low_bits_total_) | keys_[e];
  for (std::size_t i = num_modes(); i-- > 0;) {
    const std::size_t m = mode_order_[i];
    out[m] = static_cast<index_t>(
        static_cast<std::uint64_t>(key) & ((1ull << bits_[m]) - 1));
    key >>= bits_[m];
  }
}

}  // namespace amped::formats
