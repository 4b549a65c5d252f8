#include "formats/sorting.hpp"

#include <cassert>

#include "util/radix_sort.hpp"

namespace amped::formats {

std::vector<nnz_t> lexicographic_permutation(
    const CooTensor& t, std::span<const std::size_t> mode_order) {
  assert(mode_order.size() == t.num_modes());
  std::vector<util::SortKeyColumn> columns;
  columns.reserve(mode_order.size());
  for (std::size_t m : mode_order) {
    columns.push_back({t.indices(m), t.dim(m)});
  }
  return util::lexicographic_sort_permutation(columns);
}

std::vector<unsigned> mode_bits(std::span<const index_t> dims) {
  std::vector<unsigned> bits;
  bits.reserve(dims.size());
  for (index_t d : dims) bits.push_back(util::bits_for_bound(d));
  return bits;
}

std::uint64_t pack_coords(std::span<const index_t> coords,
                          std::span<const unsigned> bits,
                          std::span<const std::size_t> mode_order) {
  std::uint64_t key = 0;
  for (std::size_t m : mode_order) {
    key = (key << bits[m]) | coords[m];
  }
  return key;
}

void unpack_coords(std::uint64_t key, std::span<const unsigned> bits,
                   std::span<const std::size_t> mode_order,
                   std::span<index_t> coords_out) {
  for (std::size_t i = mode_order.size(); i-- > 0;) {
    const std::size_t m = mode_order[i];
    coords_out[m] = static_cast<index_t>(key & ((1ull << bits[m]) - 1));
    key >>= bits[m];
  }
}

}  // namespace amped::formats
