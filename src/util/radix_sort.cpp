#include "util/radix_sort.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <new>
#include <numeric>

#include "util/thread_pool.hpp"

namespace amped::util {

namespace {

constexpr unsigned kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kRadix - 1;
// Keys are computed into a stack buffer this many at a time.
constexpr nnz_t kKeyBlock = 512;
// Smallest input slice worth its own scatter chunk.
constexpr nnz_t kMinChunk = nnz_t{1} << 16;
// Buckets up to this size are insertion sorted.
constexpr nnz_t kInsertionMax = 32;
// Buckets of more than this many bytes of records are split by another
// MSD level before the in-cache LSD passes.
constexpr std::size_t kCacheBytes = std::size_t{1} << 20;

using Histogram = std::array<nnz_t, kRadix>;

// One element of a permutation sort: its key and its position in the
// input.
struct SortRecord {
  std::uint64_t key;
  nnz_t index;
};

// The key type of a record layout.
template <typename Record>
using KeyOf = decltype(Record::key);

template <typename Record>
void insertion_sort(Record* a, nnz_t n) {
  for (nnz_t i = 1; i < n; ++i) {
    const Record r = a[i];
    nnz_t j = i;
    for (; j > 0 && a[j - 1].key > r.key; --j) a[j] = a[j - 1];
    a[j] = r;
  }
}

// Stable sort of a[0, n) by key bits [0, bits); every key agrees on the
// bits above. `tmp` is scratch for n records. Returns where the sorted run
// ended up: `a` or `tmp`.
template <typename Record>
const Record* sort_low_bits(Record* a, nnz_t n, unsigned bits, Record* tmp) {
  if (n <= 1 || bits == 0) return a;
  if (n <= kInsertionMax) {
    insertion_sort(a, n);
    return a;
  }
  if (n > kCacheBytes / sizeof(Record) && bits > kDigitBits) {
    // Too big for the cache: one more stable MSD split into `tmp`, then
    // sort each part in cache and bring it back to `a`.
    const unsigned shift = bits - kDigitBits;
    Histogram count{};
    for (nnz_t i = 0; i < n; ++i) ++count[(a[i].key >> shift) & kDigitMask];
    if (count[(a[0].key >> shift) & kDigitMask] == n) {
      return sort_low_bits(a, n, shift, tmp);
    }
    Histogram start{};
    std::exclusive_scan(count.begin(), count.end(), start.begin(), nnz_t{0});
    Histogram next = start;
    for (nnz_t i = 0; i < n; ++i) {
      tmp[next[(a[i].key >> shift) & kDigitMask]++] = a[i];
    }
    for (std::size_t b = 0; b < kRadix; ++b) {
      const Record* run =
          sort_low_bits(tmp + start[b], count[b], shift, a + start[b]);
      if (run != a + start[b]) std::copy(run, run + count[b], a + start[b]);
    }
    return a;
  }
  // LSD: all pass histograms in one read, constant-digit passes skipped.
  const unsigned passes = (bits + kDigitBits - 1) / kDigitBits;
  std::array<Histogram, sizeof(KeyOf<Record>)> count;
  for (unsigned p = 0; p < passes; ++p) count[p].fill(0);
  for (nnz_t i = 0; i < n; ++i) {
    const KeyOf<Record> k = a[i].key;
    for (unsigned p = 0; p < passes; ++p) {
      ++count[p][(k >> (p * kDigitBits)) & kDigitMask];
    }
  }
  Record* src = a;
  Record* dst = tmp;
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned shift = p * kDigitBits;
    Histogram& c = count[p];
    if (c[(src[0].key >> shift) & kDigitMask] == n) continue;
    std::exclusive_scan(c.begin(), c.end(), c.begin(), nnz_t{0});
    for (nnz_t i = 0; i < n; ++i) {
      dst[c[(src[i].key >> shift) & kDigitMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

// The first MSD level of a sort: every key agrees with `first` on the
// bits from shift + 8 up, and bucket b (key bits [shift, shift + 8) equal
// to b) holds sorted positions [start[b], start[b] + size[b]).
template <typename Key>
struct TopSplit {
  Key first = 0;
  unsigned shift = 0;
  Histogram start{};
  Histogram size{};
};

// Sorts the n elements whose keys `fill(lo, hi, out)` writes (keys of
// elements [lo, hi) into out[0, hi - lo)); `make(key, index)` is element
// index's record. `recs` is the n-record array the scatter writes. See
// the header for the phases. Keys are of type Key; a record may keep only
// their low bits when the first MSD digit reaches down into them (the
// buckets' LSD passes read only the bits below the digit).
template <typename Record, typename Key, typename KeyFill,
          typename MakeRecord>
TopSplit<Key> sort_records(nnz_t n, unsigned key_bits, const KeyFill& fill,
                           const MakeRecord& make, Record* const recs,
                           const SortedRunFn<Record>& emit) {
  TopSplit<Key> top;
  if (n == 0) return top;
  assert(key_bits <= 8 * sizeof(Key));
  ThreadPool& pool = global_thread_pool();
  const nnz_t max_chunks = 4 * static_cast<nnz_t>(pool.size());
  const nnz_t chunks_wanted = std::clamp<nnz_t>(n / kMinChunk, 1, max_chunks);
  const nnz_t per = (n + chunks_wanted - 1) / chunks_wanted;
  const std::size_t chunks = static_cast<std::size_t>((n + per - 1) / per);

  Key first_key = 0;
  fill(0, 1, &first_key);
  unsigned shift = key_bits > kDigitBits ? key_bits - kDigitBits : 0;

  // Calls visit(index, key) for every element of chunk c, in order.
  auto for_chunk_keys = [&](std::size_t c, const auto& visit) {
    std::array<Key, kKeyBlock> keys;
    const nnz_t end = std::min(n, (c + 1) * per);
    for (nnz_t lo = c * per; lo < end; lo += kKeyBlock) {
      const nnz_t m = std::min(kKeyBlock, end - lo);
      fill(lo, lo + m, keys.data());
      for (nnz_t i = 0; i < m; ++i) visit(lo + i, keys[i]);
    }
  };

  // Phase 1a: per-chunk histograms of the top digit. The same read ORs
  // together every key's difference from the first one, which exposes
  // leading bits all keys share.
  std::vector<Histogram> hist(chunks);
  std::vector<Key> diff(chunks, 0);
  auto count_chunk = [&](std::size_t c) {
    Histogram& h = hist[c];
    h.fill(0);
    Key d = 0;
    for_chunk_keys(c, [&](nnz_t, Key key) {
      ++h[(key >> shift) & kDigitMask];
      d |= key ^ first_key;
    });
    diff[c] = d;
  };
  pool.parallel_for(chunks, count_chunk);
  Key any_diff = 0;
  for (Key d : diff) any_diff |= d;
  const auto varying = static_cast<unsigned>(std::bit_width(any_diff));
  const unsigned varying_shift = varying > kDigitBits ? varying - kDigitBits : 0;
  if (varying_shift < shift) {
    // The top digit is the same for every key: split on the highest
    // 8 bits that vary instead, or the scatter would make one bucket.
    shift = varying_shift;
    pool.parallel_for(chunks, count_chunk);
  }
  assert(shift <= 8 * sizeof(KeyOf<Record>));

  // Chunk c writes bucket b right after chunks 0..c-1 did: stable.
  Histogram bucket_start{};
  Histogram bucket_size{};
  for (std::size_t b = 0; b < kRadix; ++b) {
    for (const Histogram& h : hist) bucket_size[b] += h[b];
  }
  std::exclusive_scan(bucket_size.begin(), bucket_size.end(),
                      bucket_start.begin(), nnz_t{0});
  {
    Histogram next = bucket_start;
    for (Histogram& h : hist) {
      for (std::size_t b = 0; b < kRadix; ++b) {
        const nnz_t c = h[b];
        h[b] = next[b];
        next[b] += c;
      }
    }
  }

  // Phase 1b: stable scatter of the records.
  pool.parallel_for(chunks, [&](std::size_t c) {
    Histogram& next = hist[c];
    for_chunk_keys(c, [&](nnz_t index, Key key) {
      recs[next[(key >> shift) & kDigitMask]++] = make(key, index);
    });
  });

  // Phase 2: sort each bucket on the low bits (with scratch of its own
  // size, so the workspace beyond the records is one bucket per busy
  // thread), then hand it out.
  std::vector<std::size_t> buckets;
  for (std::size_t b = 0; b < kRadix; ++b) {
    if (bucket_size[b] != 0) buckets.push_back(b);
  }
  pool.parallel_for(buckets.size(), [&](std::size_t i) {
    const std::size_t b = buckets[i];
    const nnz_t first = bucket_start[b];
    const nnz_t size = bucket_size[b];
    const bool needs_scratch = size > kInsertionMax && shift > 0;
    const LargeArray<Record> scratch(needs_scratch ? size : 0);
    const Record* run =
        sort_low_bits(recs + first, size, shift, scratch.get());
    emit(first, std::span<const Record>(run, size));
  });
  top.first = first_key;
  top.shift = shift;
  top.start = bucket_start;
  top.size = bucket_size;
  return top;
}

// Writes each sorted run's source indices into `perm`.
SortedRunFn<SortRecord> permutation_writer(std::vector<nnz_t>& perm) {
  return [&perm](nnz_t first, std::span<const SortRecord> run) {
    for (std::size_t i = 0; i < run.size(); ++i) perm[first + i] = run[i].index;
  };
}

SortRecord index_record(std::uint64_t key, nnz_t index) { return {key, index}; }

// Sorts the elements of `columns` by their packed key (which must fit
// Key), making each record with `make(key, index)`.
template <typename Record, typename Key = KeyOf<Record>, typename MakeRecord>
TopSplit<Key> sort_columns(std::span<const SortKeyColumn> columns,
                           const MakeRecord& make, Record* recs,
                           const SortedRunFn<Record>& emit) {
  const nnz_t n = columns.empty() ? 0 : columns[0].keys.size();
  std::vector<unsigned> bits;
  bits.reserve(columns.size());
  for (const auto& col : columns) {
    assert(col.keys.size() == n);
    bits.push_back(bits_for_bound(col.bound));
  }
  const unsigned key_bits = packed_key_bits(columns);
  auto fill = [&](nnz_t lo, nnz_t hi, Key* out) {
    const index_t* first = columns[0].keys.data() + lo;
    for (nnz_t i = 0; i < hi - lo; ++i) out[i] = first[i];
    for (std::size_t c = 1; c < columns.size(); ++c) {
      const index_t* col = columns[c].keys.data() + lo;
      const unsigned b = bits[c];
      for (nnz_t i = 0; i < hi - lo; ++i) out[i] = (out[i] << b) | col[i];
    }
  };
  return sort_records<Record, Key>(n, key_bits, fill, make, recs, emit);
}

// Sorts `columns` into records carrying the bits of `values` and the low
// bits of Key, in `recs`.
template <typename Record, typename Key = KeyOf<Record>>
TopSplit<Key> sort_columns_with_values(std::span<const SortKeyColumn> columns,
                                       std::span<const value_t> values,
                                       Record* recs,
                                       const SortedRunFn<Record>& emit) {
  assert(columns.empty() || values.size() == columns[0].keys.size());
  const value_t* v = values.data();
  return sort_columns<Record, Key>(
      columns,
      [v](Key key, nnz_t index) {
        Record r{};
        r.key = static_cast<KeyOf<Record>>(key);
        r.value_bits = std::bit_cast<std::uint32_t>(v[index]);
        return r;
      },
      recs, emit);
}

// Sorts `columns` with a record array of its own and emits the runs.
template <typename Record>
void sort_columns_emitting(std::span<const SortKeyColumn> columns,
                           std::span<const value_t> values,
                           const SortedRunFn<Record>& emit) {
  const LargeArray<Record> records(values.size());
  sort_columns_with_values(columns, values, records.get(), emit);
}

// Sorts `columns` into `out`, bringing every bucket sorted in scratch back
// into place.
template <typename Record, typename Key = KeyOf<Record>>
TopSplit<Key> sort_columns_into(std::span<const SortKeyColumn> columns,
                                std::span<const value_t> values, Record* out) {
  return sort_columns_with_values<Record, Key>(
      columns, values, out,
      SortedRunFn<Record>([out](nnz_t first, std::span<const Record> run) {
        if (run.data() != out + first) {
          std::copy(run.begin(), run.end(), out + first);
        }
      }));
}

}  // namespace

template <typename T>
LargeArray<T>::LargeArray(std::size_t n) : bytes_(n * sizeof(T)) {
  if (bytes_ == 0) return;
  if (!mapped()) {
    data_ = static_cast<T*>(::operator new(bytes_));
    return;
  }
  void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<T*>(p);
}

template <typename T>
void LargeArray<T>::release() noexcept {
  if (data_ == nullptr) return;
  if (mapped()) {
    ::munmap(data_, bytes_);
  } else {
    ::operator delete(data_);
  }
  data_ = nullptr;
  bytes_ = 0;
}

template class LargeArray<std::byte>;
template class LargeArray<SortRecord>;
template class LargeArray<KeyValue32>;
template class LargeArray<KeyValue64>;

unsigned bits_for_bound(index_t bound) {
  unsigned b = 1;
  while ((std::uint64_t{1} << b) < bound) ++b;
  return b;
}

unsigned packed_key_bits(std::span<const SortKeyColumn> columns) {
  unsigned bits = 0;
  for (const auto& col : columns) bits += bits_for_bound(col.bound);
  return bits;
}

void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values,
                        const SortedRunFn<KeyValue32>& emit) {
  sort_columns_emitting(columns, values, emit);
}

void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values,
                        const SortedRunFn<KeyValue64>& emit) {
  sort_columns_emitting(columns, values, emit);
}

void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue32* out) {
  sort_columns_into(columns, values, out);
}

void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue64* out) {
  sort_columns_into(columns, values, out);
}

void radix_sort_columns(std::span<const SortKeyColumn> columns,
                        std::span<const value_t> values, KeyValue32* out,
                        std::vector<KeyHighRun>& high) {
  assert(packed_key_bits(columns) <= kMaxSplitKeyBits);
  high.clear();
  const auto top =
      sort_columns_into<KeyValue32, std::uint64_t>(columns, values, out);
  // Bucket b's keys are the first key's bits from shift + 8 up, then b:
  // with at most 40 key bits the digit's lowest bit is at most 32, so
  // that is all of their bits from 32 up.
  const std::uint64_t above = top.first >> (top.shift + kDigitBits)
                                           << kDigitBits;
  for (std::size_t b = 0; b < kRadix; ++b) {
    if (top.size[b] == 0) continue;
    const std::uint64_t bits = ((above | b) << top.shift) >> 32;
    if (high.empty() || high.back().high != bits) {
      high.push_back({top.start[b], bits});
    }
  }
}

std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const SortKeyColumn> columns) {
  const nnz_t n = columns.empty() ? 0 : columns[0].keys.size();
  std::vector<nnz_t> perm(n);
  const LargeArray<SortRecord> records(n);
  // One stable pass per group of whole columns of at most 64 key bits,
  // least significant group first, so each pass keeps the order of the
  // groups below it among its ties. A key of up to 64 bits is one pass.
  // A later pass reads its keys and source indices through `perm` while it
  // scatters, before its runs write `perm` back.
  for (std::size_t end = columns.size(); end > 0;) {
    std::size_t begin = end;
    for (unsigned bits = 0; begin > 0; --begin) {
      bits += bits_for_bound(columns[begin - 1].bound);
      if (bits > 64) break;
    }
    const auto group = columns.subspan(begin, end - begin);
    if (end == columns.size()) {
      sort_columns(group, index_record, records.get(),
                   permutation_writer(perm));
    } else {
      std::vector<unsigned> bits;
      for (const auto& col : group) bits.push_back(bits_for_bound(col.bound));
      const nnz_t* prev = perm.data();
      auto fill = [&](nnz_t lo, nnz_t hi, std::uint64_t* out) {
        const nnz_t* e = prev + lo;
        const index_t* first = group[0].keys.data();
        for (nnz_t i = 0; i < hi - lo; ++i) out[i] = first[e[i]];
        for (std::size_t c = 1; c < group.size(); ++c) {
          const index_t* col = group[c].keys.data();
          for (nnz_t i = 0; i < hi - lo; ++i) {
            out[i] = (out[i] << bits[c]) | col[e[i]];
          }
        }
      };
      auto make = [prev](std::uint64_t key, nnz_t i) {
        return SortRecord{key, prev[i]};
      };
      sort_records<SortRecord, std::uint64_t>(
          n, packed_key_bits(group), fill, make, records.get(),
          permutation_writer(perm));
    }
    end = begin;
  }
  return perm;
}

}  // namespace amped::util
