#include "tensor/coo_tensor.hpp"

#include <bit>
#include <cassert>
#include <sstream>

#include "util/radix_sort.hpp"

namespace amped {

CooTensor::CooTensor(std::vector<index_t> dims) : dims_(std::move(dims)) {
  assert(!dims_.empty() && dims_.size() <= kMaxModes);
  index_.resize(dims_.size());
}

CooTensor CooTensor::from_parts(std::vector<index_t> dims,
                                std::vector<std::vector<index_t>> indices,
                                std::vector<value_t> values) {
  CooTensor t(std::move(dims));
  assert(indices.size() == t.num_modes());
  for ([[maybe_unused]] const auto& col : indices) {
    assert(col.size() == values.size());
  }
  t.index_ = std::move(indices);
  t.values_ = std::move(values);
  return t;
}

void CooTensor::push_back(std::span<const index_t> coords, value_t value) {
  assert(coords.size() == num_modes());
  for (std::size_t m = 0; m < num_modes(); ++m) {
    index_[m].push_back(coords[m]);
  }
  values_.push_back(value);
}

void CooTensor::reserve(nnz_t n) {
  for (auto& v : index_) v.reserve(n);
  values_.reserve(n);
}

void CooTensor::apply_permutation(std::span<const nnz_t> perm) {
  assert(perm.size() == nnz());
  std::vector<value_t> new_vals(values_.size());
  for (nnz_t i = 0; i < perm.size(); ++i) new_vals[i] = values_[perm[i]];
  values_ = std::move(new_vals);
  for (auto& idx : index_) {
    std::vector<index_t> next(idx.size());
    for (nnz_t i = 0; i < perm.size(); ++i) next[i] = idx[perm[i]];
    idx = std::move(next);
  }
}

namespace {

std::vector<util::SortKeyColumn> key_columns(
    std::span<const index_t> dims,
    std::span<const std::span<const index_t>> indices,
    std::span<const std::size_t> mode_order) {
  assert(mode_order.size() == dims.size() && indices.size() == dims.size());
  std::vector<util::SortKeyColumn> columns;
  columns.reserve(mode_order.size());
  for (std::size_t m : mode_order) columns.push_back({indices[m], dims[m]});
  return columns;
}

// Radix sorts the elements of `columns` (the index columns in mode order)
// with records of layout `Record`, and writes them out in sorted order:
// coordinates decoded from the packed key into dst[k] (the column of
// columns[k]), values from the bits the records carry. dst and dst_values
// are the source arrays: the sort reads every key and value before it
// emits.
template <typename Record>
void radix_sort_into(std::span<const util::SortKeyColumn> columns,
                     std::span<const value_t> values,
                     std::span<index_t* const> dst, value_t* dst_values) {
  const std::size_t k_count = columns.size();
  std::vector<unsigned> shift(k_count);
  std::vector<std::uint64_t> mask(k_count);
  unsigned below = 0;
  for (std::size_t k = k_count; k-- > 0;) {
    const unsigned bits = util::bits_for_bound(columns[k].bound);
    shift[k] = below;
    mask[k] = (std::uint64_t{1} << bits) - 1;
    below += bits;
  }
  util::radix_sort_columns(
      columns, values,
      util::SortedRunFn<Record>(
          [&](nnz_t first, std::span<const Record> run) {
            for (std::size_t k = 0; k < k_count; ++k) {
              index_t* out = dst[k] + first;
              for (std::size_t i = 0; i < run.size(); ++i) {
                out[i] =
                    static_cast<index_t>((run[i].key >> shift[k]) & mask[k]);
              }
            }
            value_t* out = dst_values + first;
            for (std::size_t i = 0; i < run.size(); ++i) {
              out[i] = std::bit_cast<value_t>(run[i].value_bits);
            }
          }));
}

// radix_sort_into with the smallest record that holds the packed key
// (packed_key_bits(columns) must be <= 64).
void radix_sort_into(std::span<const util::SortKeyColumn> columns,
                     std::span<const value_t> values,
                     std::span<index_t* const> dst, value_t* dst_values) {
  if (util::packed_key_bits(columns) <= 32) {
    radix_sort_into<util::KeyValue32>(columns, values, dst, dst_values);
  } else {
    radix_sort_into<util::KeyValue64>(columns, values, dst, dst_values);
  }
}

}  // namespace

std::vector<std::size_t> mode_major_order(std::size_t num_modes,
                                          std::size_t major_mode) {
  assert(major_mode < num_modes);
  std::vector<std::size_t> order;
  order.reserve(num_modes);
  order.push_back(major_mode);
  for (std::size_t m = 0; m < num_modes; ++m) {
    if (m != major_mode) order.push_back(m);
  }
  return order;
}

void CooTensor::sort_by_mode(std::size_t major_mode) {
  sort_lexicographic(mode_major_order(num_modes(), major_mode));
}

void CooTensor::sort_lexicographic(std::span<const std::size_t> mode_order) {
  const std::vector<std::span<const index_t>> cols(index_.begin(),
                                                   index_.end());
  const auto columns = key_columns(dims_, cols, mode_order);
  if (util::packed_key_bits(columns) > 64) {
    apply_permutation(util::lexicographic_sort_permutation(columns));
    return;
  }
  // Coordinates and values are written back into their own arrays.
  std::vector<index_t*> dst;
  for (std::size_t m : mode_order) dst.push_back(index_[m].data());
  radix_sort_into(columns, values_, dst, values_.data());
}

nnz_t CooTensor::coalesce() {
  if (nnz() == 0) return 0;
  const nnz_t n = nnz();
  nnz_t write = 0;
  auto same_coords = [&](nnz_t a, nnz_t b) {
    for (std::size_t m = 0; m < num_modes(); ++m) {
      if (index_[m][a] != index_[m][b]) return false;
    }
    return true;
  };
  for (nnz_t read = 1; read < n; ++read) {
    if (same_coords(write, read)) {
      values_[write] += values_[read];
    } else {
      ++write;
      for (std::size_t m = 0; m < num_modes(); ++m) {
        index_[m][write] = index_[m][read];
      }
      values_[write] = values_[read];
    }
  }
  const nnz_t kept = write + 1;
  for (auto& idx : index_) idx.resize(kept);
  values_.resize(kept);
  return n - kept;
}

bool CooTensor::indices_in_bounds() const {
  for (std::size_t m = 0; m < num_modes(); ++m) {
    for (index_t idx : index_[m]) {
      if (idx >= dims_[m]) return false;
    }
  }
  return true;
}

void CooTensor::coords_of(nnz_t n, std::span<index_t> out) const {
  assert(n < nnz() && out.size() >= num_modes());
  for (std::size_t m = 0; m < num_modes(); ++m) out[m] = index_[m][n];
}

namespace {
std::string human_count(double v) {
  std::ostringstream os;
  os.precision(3);
  if (v >= 1e9) {
    os << v / 1e9 << "B";
  } else if (v >= 1e6) {
    os << v / 1e6 << "M";
  } else if (v >= 1e3) {
    os << v / 1e3 << "K";
  } else {
    os << v;
  }
  return os.str();
}
}  // namespace

std::string CooTensor::shape_string() const {
  return amped::shape_string(dims_, nnz());
}

std::string shape_string(std::span<const index_t> dims, nnz_t nnz) {
  std::ostringstream os;
  for (std::size_t m = 0; m < dims.size(); ++m) {
    if (m) os << " x ";
    os << human_count(static_cast<double>(dims[m]));
  }
  os << ", " << human_count(static_cast<double>(nnz)) << " nnz";
  return os.str();
}

}  // namespace amped
