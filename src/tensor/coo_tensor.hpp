// N-mode sparse tensor in COOrdinate (COO) format, structure-of-arrays.
//
// COO is the interchange format of this project: generators produce it,
// the FROSTT .tns reader parses into it, and every execution format
// (AMPED shards, CSF, HiCOO, BLCO) is built from a COO tensor during
// preprocessing. Indices are stored one contiguous array per mode (SoA)
// so mode-specific passes stream exactly the coordinates they touch.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tensor/types.hpp"

namespace amped {

class CooTensor {
 public:
  CooTensor() = default;

  // Creates an empty tensor with the given mode sizes.
  explicit CooTensor(std::vector<index_t> dims);

  // Adopts fully-built SoA arrays without per-element appends: `indices`
  // holds one column per mode, all sized like `values`. This is the bulk
  // path used by the storage engine (snapshot reloads, parallel ingest,
  // shard streams); push_back stays the incremental one.
  static CooTensor from_parts(std::vector<index_t> dims,
                              std::vector<std::vector<index_t>> indices,
                              std::vector<value_t> values);

  std::size_t num_modes() const { return dims_.size(); }
  nnz_t nnz() const { return values_.size(); }
  const std::vector<index_t>& dims() const { return dims_; }
  index_t dim(std::size_t mode) const { return dims_[mode]; }

  std::span<const index_t> indices(std::size_t mode) const {
    return index_[mode];
  }
  std::span<index_t> mutable_indices(std::size_t mode) { return index_[mode]; }
  std::span<const value_t> values() const { return values_; }
  std::span<value_t> mutable_values() { return values_; }

  // Appends one nonzero. `coords` must have num_modes() entries.
  void push_back(std::span<const index_t> coords, value_t value);
  void reserve(nnz_t n);

  // Sorts nonzeros lexicographically with `major_mode` as the most
  // significant key, remaining modes in ascending mode order. This is the
  // order in which an output-mode-d tensor copy is laid out.
  void sort_by_mode(std::size_t major_mode);

  // Stable lexicographic sort under `mode_order` (mode_order[0] most
  // significant; a permutation of the modes). When the packed coordinates
  // fit 64 bits the radix sort (util/radix_sort.hpp) writes each sorted
  // bucket back into this tensor: its records carry the value's bits
  // beside the key (8 B when the key fits 32 bits, 16 B otherwise), so
  // coordinates and values are both decoded in order, with no gather.
  // Wider index spaces are sorted into a permutation
  // (util::lexicographic_sort_permutation), which is then applied. (AMPED
  // mode copies keep the records instead: tensor/packed_copy.hpp.)
  void sort_lexicographic(std::span<const std::size_t> mode_order);

  // Merges duplicate coordinates (summing values). Requires any sorted
  // order; returns the number of merged-away entries.
  nnz_t coalesce();

  // True when every index is within its mode size.
  bool indices_in_bounds() const;

  // Bytes one nonzero occupies in COO (indices + value); used by the
  // simulator's memory-capacity and transfer accounting.
  std::size_t bytes_per_nnz() const {
    return num_modes() * sizeof(index_t) + sizeof(value_t);
  }
  std::size_t storage_bytes() const { return nnz() * bytes_per_nnz(); }

  // Gathers the coordinates of nonzero `n` into `out` (size >= num_modes).
  void coords_of(nnz_t n, std::span<index_t> out) const;

  // Human-readable "8.2M x 177K x 8.1M, 4.7B nnz"-style description.
  std::string shape_string() const;

  // Applies `perm` (a permutation of [0, nnz)) to all index arrays and the
  // value array: element i of the result is element perm[i] of the input.
  void apply_permutation(std::span<const nnz_t> perm);

 private:
  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> index_;  // index_[mode][n]
  std::vector<value_t> values_;
};

// The key order of CooTensor::sort_by_mode(major_mode): `major_mode`, then
// the remaining modes ascending.
std::vector<std::size_t> mode_major_order(std::size_t num_modes,
                                          std::size_t major_mode);

// The "8.2M x 177K x 8.1M, 4.7B nnz" rendering behind
// CooTensor::shape_string, shared with non-owning tensor views.
std::string shape_string(std::span<const index_t> dims, nnz_t nnz);

}  // namespace amped
