// Coordinate sorting utilities shared by the execution formats.
//
// Every format build starts from a lexicographic sort under some mode
// permutation (CSF's tree order, HiCOO's block-major order, BLCO's
// linearised order). These helpers produce the permutation without moving
// the tensor, so a build does one gather per array it writes.
// Permutations come from the radix sort in util/radix_sort.hpp: one pass
// when the concatenated mode bits fit a 64-bit packed key, one per 64-bit
// group of modes for wider index spaces, stable at every width. An
// in-place sort of a whole tensor is CooTensor::sort_lexicographic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace amped::formats {

// Permutation sorting nonzeros lexicographically by the given mode order
// (mode_order[0] most significant).
std::vector<nnz_t> lexicographic_permutation(
    const CooTensor& t, std::span<const std::size_t> mode_order);

// Bits needed to store indices of each mode (at least 1 per mode).
std::vector<unsigned> mode_bits(std::span<const index_t> dims);

// Packs coordinates into a single integer, mode_order[0] in the most
// significant bits. Total bits must be <= 64 for this helper; BLCO's
// block splitting handles wider tensors.
std::uint64_t pack_coords(std::span<const index_t> coords,
                          std::span<const unsigned> bits,
                          std::span<const std::size_t> mode_order);

// Inverse of pack_coords.
void unpack_coords(std::uint64_t key, std::span<const unsigned> bits,
                   std::span<const std::size_t> mode_order,
                   std::span<index_t> coords_out);

}  // namespace amped::formats
