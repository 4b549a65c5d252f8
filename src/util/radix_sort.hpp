// Cache-resident, pool-parallel radix sort for the preprocessing hot path.
//
// Every execution format build starts by sorting nonzeros under some
// lexicographic key (mode-major order, block-major order, linearised
// order). When the concatenated key fits in 64 bits the order is an
// integer sort of packed keys. The sort works on 16-byte (key, source
// index) records in two phases:
//
//  1. MSD scatter. One pass over the input scatters records into 256
//     buckets on the highest 8 key bits that vary (bits every key shares
//     are found in the counting read and skipped). The input is cut into
//     chunks that are histogrammed and scattered on global_thread_pool();
//     chunk c writes each bucket after chunks 0..c-1, so the pass is
//     stable. Keys are computed from the input on the fly (twice: count,
//     then scatter) rather than stored, so the only O(nnz) workspace is
//     the record array itself.
//  2. LSD inside each bucket. Buckets are sorted in parallel by a stable
//     LSD radix sort over the remaining bits, 8 bits a pass, with the
//     histograms of all passes taken in one read and constant-digit
//     passes skipped. A bucket is a few hundred KB at the scales this
//     repo runs, so its passes stay in cache instead of scattering over
//     the whole array as a global LSD sort does; a bucket of more than
//     1 MiB of records is split by another MSD level first.
//
// Both phases are stable, so ties keep input order and the result equals
// that of any stable sort by key: bit-identical at any thread count and
// from inside a pool task (where parallel_for runs inline). Each sorted
// bucket is handed to the caller as soon as it is done, while it is still
// in cache, so callers can write their output (decode coordinates from
// the key, gather values by source index) without a separate
// permutation pass. Workspace: the 16 B/nnz record array plus one
// bucket-sized scratch per busy thread. The chunk count depends on the
// pool size, the output never does.
//
// This lives in util/ (not formats/) because CooTensor's sorts need it
// too and tensor/ must not depend on formats/.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tensor/types.hpp"

namespace amped::util {

// One lexicographic key component: `keys[i]` is element i's value for this
// component, all values < `bound`. Components are given most significant
// first.
struct SortKeyColumn {
  std::span<const index_t> keys;
  index_t bound = 0;
};

// Bits needed to store values in [0, bound); at least 1.
unsigned bits_for_bound(index_t bound);

// Total bits of the packed key of `columns`: each column takes
// bits_for_bound(bound) bits, columns[0] in the most significant ones.
unsigned packed_key_bits(std::span<const SortKeyColumn> columns);

// One element of a sort: its key and its position in the input.
struct SortRecord {
  std::uint64_t key;
  nnz_t index;
};

// Receives consecutive runs of the sorted order: `run[i]` is the element at
// sorted position `first + i`. Runs arrive in any order, possibly from
// several pool threads at once, but never overlap and together cover
// [0, n) exactly once. The sort has read every key before the first call.
using SortedRunFn =
    std::function<void(nnz_t first, std::span<const SortRecord> run)>;

// Stable sort of the elements of `columns` by their packed key
// (packed_key_bits(columns) must be <= 64). Records carry the packed key,
// so callers can decode column values from it.
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        const SortedRunFn& emit);

// Stable radix sort of `keys` (only the low `key_bits` bits are
// significant). Returns the sorting permutation: element i of the sorted
// order is input element perm[i]. Ties keep input order.
std::vector<nnz_t> radix_sort_permutation(std::span<const std::uint64_t> keys,
                                          unsigned key_bits);

// Permutation sorting elements lexicographically by `columns` (first
// column most significant). Radix sorts the packed key when its total bit
// width allows; otherwise falls back to a comparison sort with the same
// ordering. The radix path is stable; the fallback breaks full-key ties
// arbitrarily (callers that need full determinism must make keys unique,
// as all format builds do).
std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const SortKeyColumn> columns);

}  // namespace amped::util
