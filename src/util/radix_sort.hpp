// Cache-resident, pool-parallel radix sort for the preprocessing hot path.
//
// Every execution format build starts by sorting nonzeros under some
// lexicographic key (mode-major order, block-major order, linearised
// order). When the concatenated key fits in 64 bits the order is an
// integer sort of packed keys; a wider key is sorted by one such sort per
// 64-bit group of its columns (lexicographic_sort_permutation). The sort
// moves fixed-size records, one per element, whose layout depends on what
// the caller needs back:
//
//  - KeyValue32 (8 B: u32 key, u32 value bits) and KeyValue64 (16 B: u64
//    key, u32 value bits, u32 pad) carry the element's value. An AMPED
//    mode copy keeps these records as they leave the sort
//    (tensor/packed_copy.hpp); CooTensor's in-place sorts decode each
//    run in order: coordinates from the key, the value from its bits. No
//    gather by source index either way. The 8-byte layout is used when
//    the packed key fits 32 bits (Patents at the scales this repo runs);
//    wider keys take the 16-byte one, except that a mode copy with a key
//    of 33-40 bits (Amazon) keeps 8-byte records of the low 32 bits and
//    gets the bits above as runs (radix_sort_columns with KeyHighRun).
//  - the permutation sort (lexicographic_sort_permutation) uses 16-byte
//    (u64 key, u64 source index) records.
//
// Every layout goes through the same two phases:
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
// in cache, so callers write their output without a separate permutation
// pass, or leave the sorted records in an array the caller keeps.
// Workspace: the record array (8 or 16 B/nnz for a tensor copy, 16 B/nnz
// for a permutation) plus one bucket-sized scratch per busy thread. The chunk count depends on the pool size, the output never
// does.
//
// This lives in util/ (not formats/) because CooTensor's sorts need it
// too and tensor/ must not depend on formats/.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
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

// Uninitialised storage for n trivially copyable elements. Arrays of
// 16 MiB and more are mapped directly rather than taken from malloc:
// glibc raises its mmap threshold to the size of any mapped block it frees
// (up to 32 MiB), and allocations below the threshold then come from its
// heap, where freed memory stays resident. Freeing a 29 MiB record array
// through malloc (8-byte records, Patents at 1/1000) raised the peak RSS
// of a spilled build and its ALS by 13%. Smaller arrays stay with malloc:
// mapping the 8 MiB record array of a Twitch 1/1000 mode sort as well made
// that end-to-end set-up 9% slower (perfbench cpd-twitch, slower in 10 of
// 10 pairs on a 4-vCPU 2 GHz Xeon): a fresh mapping faults in every page
// on every sort, heap pages are reused.
template <typename T>
class LargeArray {
 public:
  LargeArray() = default;
  explicit LargeArray(std::size_t n);
  ~LargeArray() { release(); }
  LargeArray(LargeArray&& other) noexcept
      : bytes_(std::exchange(other.bytes_, 0)),
        data_(std::exchange(other.data_, nullptr)) {}
  LargeArray& operator=(LargeArray&& other) noexcept {
    if (this != &other) {
      release();
      bytes_ = std::exchange(other.bytes_, 0);
      data_ = std::exchange(other.data_, nullptr);
    }
    return *this;
  }
  LargeArray(const LargeArray&) = delete;
  LargeArray& operator=(const LargeArray&) = delete;

  T* get() const { return data_; }
  std::size_t size() const { return bytes_ / sizeof(T); }

 private:
  static constexpr std::size_t kMapBytes = std::size_t{16} << 20;
  bool mapped() const { return bytes_ >= kMapBytes; }
  void release() noexcept;

  std::size_t bytes_ = 0;
  T* data_ = nullptr;
};

// Bits needed to store values in [0, bound); at least 1.
unsigned bits_for_bound(index_t bound);

// Total bits of the packed key of `columns`: each column takes
// bits_for_bound(bound) bits, columns[0] in the most significant ones.
unsigned packed_key_bits(std::span<const SortKeyColumn> columns);

// One element of a tensor-copy sort: its packed key and the bits of its
// value (std::bit_cast, so NaN payloads and -0.0 survive). KeyValue32
// holds a packed key of up to 32 bits (or the low 32 bits of one of up to
// kMaxSplitKeyBits, below), KeyValue64 one of up to 64.
struct KeyValue32 {
  std::uint32_t key;
  std::uint32_t value_bits;
};
struct KeyValue64 {
  std::uint64_t key;
  std::uint32_t value_bits;
  std::uint32_t pad;
};
static_assert(sizeof(value_t) == sizeof(std::uint32_t));
static_assert(sizeof(KeyValue32) == 8 && sizeof(KeyValue64) == 16);

// Receives consecutive runs of the sorted order: `run[i]` is the element at
// sorted position `first + i`. Runs arrive in any order, possibly from
// several pool threads at once, but never overlap and together cover
// [0, n) exactly once. The sort has read every key and value before the
// first call.
template <typename Record>
using SortedRunFn =
    std::function<void(nnz_t first, std::span<const Record> run)>;

// Stable sort of the elements of `columns` by their packed key; element
// i's record carries the bits of values[i]. packed_key_bits(columns) must
// be <= 32 for KeyValue32 records and <= 64 for KeyValue64 ones.
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values,
                        const SortedRunFn<KeyValue32>& emit);
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values,
                        const SortedRunFn<KeyValue64>& emit);

// The same sorts, leaving the sorted records in out[0, n): the record
// array the scatter writes is `out` itself, so a caller that keeps the
// records (a packed mode copy) needs no second array.
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue32* out);
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue64* out);

// Keys of 33 to kMaxSplitKeyBits bits in 8-byte records: each record keeps
// the key's low 32 bits, and `high` receives the bits above, once per run
// of sorted records that share them ({first record of the run, key >> 32},
// in order, the first at record 0; empty when there are no elements). The
// sort's first digit covers every bit from 32 up, so each of its buckets
// has one high value and the runs come from the bucket starts.
struct KeyHighRun {
  nnz_t first;
  std::uint64_t high;
};
inline constexpr unsigned kMaxSplitKeyBits = 40;
void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue32* out,
                        std::vector<KeyHighRun>& high);

// Permutation sorting elements lexicographically by `columns` (first
// column most significant): element i of the sorted order is input
// element perm[i], and ties keep input order. A packed key of up to 64
// bits is one radix sort. A wider one is cut into groups of whole columns
// of at most 64 bits each, and one stable radix sort per group runs from
// the least significant group up, each reading its keys through the
// permutation the one before left, so a key of any width sorts stably.
std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const SortKeyColumn> columns);

}  // namespace amped::util
