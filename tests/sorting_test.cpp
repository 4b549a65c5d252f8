#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/amped_tensor.hpp"
#include "formats/sorting.hpp"
#include "tensor/generator.hpp"
#include "tensor/packed_copy.hpp"
#include "util/fault.hpp"
#include "util/radix_sort.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

using formats::lexicographic_permutation;

std::vector<std::size_t> identity_order(std::size_t modes) {
  std::vector<std::size_t> order(modes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

// The pre-radix implementation: comparison sort with per-comparison
// coordinate gathers. Ground truth for the equivalence property.
std::vector<nnz_t> comparison_permutation(
    const CooTensor& t, std::span<const std::size_t> mode_order) {
  std::vector<nnz_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (std::size_t m : mode_order) {
      const auto idx = t.indices(m);
      if (idx[a] != idx[b]) return idx[a] < idx[b];
    }
    return false;
  });
  return perm;
}

std::vector<index_t> coords_at(const CooTensor& t, nnz_t e,
                               std::span<const std::size_t> mode_order) {
  std::vector<index_t> c;
  c.reserve(mode_order.size());
  for (std::size_t m : mode_order) c.push_back(t.indices(m)[e]);
  return c;
}

bool is_permutation_of_iota(std::span<const nnz_t> perm) {
  std::vector<nnz_t> sorted(perm.begin(), perm.end());
  std::sort(sorted.begin(), sorted.end());
  for (nnz_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

struct SortCase {
  std::vector<index_t> dims;
  nnz_t nnz;
  std::uint64_t seed;
};

// Shapes chosen to cover the packed-key radix path (small totals), the
// exact 64-bit boundary (4 x 16-bit modes), and a key over 64 bits sorted
// in two radix passes (7 x 10-bit modes = 70 bits).
const SortCase kCases[] = {
    {{16, 16}, 300, 1},
    {{1u << 12, 1u << 9, 1u << 11}, 5000, 2},
    {{65536, 65536, 65536, 65536}, 4000, 3},
    {{1024, 1024, 1024, 1024, 1024, 1024, 1024}, 3000, 4},
    {{3, 2, 5}, 64, 5},  // heavy duplication: many full-key ties
};

class SortEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortEquivalence, RadixMatchesComparisonSortUpToTies) {
  const SortCase& c = kCases[GetParam()];
  GeneratorOptions gen;
  gen.dims = c.dims;
  gen.nnz = c.nnz;
  gen.zipf_exponents.assign(c.dims.size(), 0.7);
  gen.seed = c.seed;
  const auto t = generate_random(gen);

  // Exercise a non-trivial mode order too (reversed).
  for (const bool reversed : {false, true}) {
    auto order = identity_order(t.num_modes());
    if (reversed) std::reverse(order.begin(), order.end());

    const auto radix = lexicographic_permutation(t, order);
    const auto reference = comparison_permutation(t, order);
    ASSERT_TRUE(is_permutation_of_iota(radix));

    // Equal up to tie order: position by position, the *keys* must match
    // even where the permutations pick different elements of a tie group.
    ASSERT_EQ(radix.size(), reference.size());
    for (nnz_t i = 0; i < radix.size(); ++i) {
      EXPECT_EQ(coords_at(t, radix[i], order),
                coords_at(t, reference[i], order))
          << "case " << GetParam() << " reversed=" << reversed
          << " position " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, SortEquivalence,
                         ::testing::Range(std::size_t{0},
                                          std::size_t{std::size(kCases)}));

TEST(SortingTest, ApplyPermutationRoundTrips) {
  for (const SortCase& c : kCases) {
    GeneratorOptions gen;
    gen.dims = c.dims;
    gen.nnz = c.nnz;
    gen.zipf_exponents.assign(c.dims.size(), 0.5);
    gen.seed = c.seed + 100;
    const auto original = generate_random(gen);
    auto t = original;

    const auto order = identity_order(t.num_modes());
    t.sort_lexicographic(order);

    // Sorted order holds...
    for (nnz_t i = 1; i < t.nnz(); ++i) {
      EXPECT_LE(coords_at(t, i - 1, order), coords_at(t, i, order));
    }
    // ...and the (coords, value) multiset survived the gather untouched.
    auto census = [&](const CooTensor& x) {
      std::map<std::pair<std::vector<index_t>, value_t>, int> m;
      for (nnz_t i = 0; i < x.nnz(); ++i) {
        ++m[{coords_at(x, i, order), x.values()[i]}];
      }
      return m;
    };
    EXPECT_EQ(census(original), census(t));
  }
}

TEST(RadixSortTest, StableOnEqualKeys) {
  const std::vector<index_t> keys = {5, 3, 5, 3, 5, 0, 3};
  const std::vector<index_t> zeros(keys.size(), 0);
  // Equal keys keep input order: as one 3-bit column, and as the top of a
  // 67-bit key whose low 64 bits (two 32-bit columns) tie everywhere, so
  // the second radix pass sees every tie the first one left.
  const std::vector<nnz_t> expected = {5, 1, 3, 6, 0, 2, 4};
  const util::SortKeyColumn narrow[] = {{keys, 8}};
  EXPECT_EQ(util::lexicographic_sort_permutation(narrow), expected);
  const util::SortKeyColumn wide[] = {
      {keys, 8}, {zeros, 0xffffffffu}, {zeros, 0xffffffffu}};
  ASSERT_EQ(util::packed_key_bits(wide), 67u);
  EXPECT_EQ(util::lexicographic_sort_permutation(wide), expected);
}

TEST(RadixSortTest, MatchesStableSortOnWideKeys) {
  // 60-bit keys: a 28-bit column above a 32-bit one.
  Rng rng(42);
  std::vector<index_t> high(4096), low(4096);
  for (nnz_t i = 0; i < high.size(); ++i) {
    high[i] = static_cast<index_t>(rng.next_below(1u << 28));
    low[i] = static_cast<index_t>(rng.next_below(0xffffffffu));
  }
  const util::SortKeyColumn columns[] = {{high, 1u << 28}, {low, 0xffffffffu}};
  ASSERT_EQ(util::packed_key_bits(columns), 60u);
  const auto perm = util::lexicographic_sort_permutation(columns);
  std::vector<nnz_t> expected(high.size());
  std::iota(expected.begin(), expected.end(), nnz_t{0});
  std::stable_sort(expected.begin(), expected.end(), [&](nnz_t a, nnz_t b) {
    return std::pair(high[a], low[a]) < std::pair(high[b], low[b]);
  });
  EXPECT_EQ(perm, expected);
}

TEST(RadixSortTest, EmptyAndSingle) {
  EXPECT_TRUE(util::lexicographic_sort_permutation({}).empty());
  const std::vector<index_t> none;
  const util::SortKeyColumn empty[] = {{none, 8}, {none, 0xffffffffu},
                                       {none, 0xffffffffu}};
  EXPECT_TRUE(util::lexicographic_sort_permutation(empty).empty());
  const std::vector<index_t> one = {7};
  const util::SortKeyColumn single[] = {{one, 8}};
  EXPECT_EQ(util::lexicographic_sort_permutation(single),
            std::vector<nnz_t>{0});
  const util::SortKeyColumn single_wide[] = {
      {one, 8}, {one, 0xffffffffu}, {one, 0xffffffffu}};
  EXPECT_EQ(util::lexicographic_sort_permutation(single_wide),
            std::vector<nnz_t>{0});
}

// ---------------------------------------------------------------------------
// Oracle: the serial LSD sort the MSD + in-bucket LSD sort replaced, and the
// copy + sort + apply_permutation that built every sorted copy with it,
// kept verbatim up to 64 key bits. The new sort must reproduce its output
// byte for byte. Above 64 bits the reference is a stable sort: the
// documented order, ties in input order.
namespace oracle {

std::vector<nnz_t> radix_sort_permutation(std::span<const std::uint64_t> keys,
                                          unsigned key_bits) {
  const nnz_t n = keys.size();
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  if (n <= 1) return perm;
  assert(key_bits <= 64);

  std::vector<std::uint64_t> k(keys.begin(), keys.end());
  std::vector<std::uint64_t> k2(n);
  std::vector<nnz_t> perm2(n);

  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  for (unsigned shift = 0; shift < key_bits; shift += kDigitBits) {
    std::array<nnz_t, kBuckets> count{};
    for (nnz_t i = 0; i < n; ++i) ++count[(k[i] >> shift) & (kBuckets - 1)];
    if (count[(k[0] >> shift) & (kBuckets - 1)] == n) continue;
    nnz_t offset = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const nnz_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (nnz_t i = 0; i < n; ++i) {
      const nnz_t dst = count[(k[i] >> shift) & (kBuckets - 1)]++;
      k2[dst] = k[i];
      perm2[dst] = perm[i];
    }
    k.swap(k2);
    perm.swap(perm2);
  }
  return perm;
}

std::vector<nnz_t> lexicographic_sort_permutation(
    std::span<const util::SortKeyColumn> columns) {
  nnz_t n = columns.empty() ? 0 : columns[0].keys.size();
  unsigned total_bits = 0;
  for (const auto& col : columns) {
    assert(col.keys.size() == n);
    total_bits += util::bits_for_bound(col.bound);
  }

  if (total_bits <= 64) {
    std::vector<std::uint64_t> packed(n, 0);
    for (const auto& col : columns) {
      const unsigned bits = util::bits_for_bound(col.bound);
      for (nnz_t i = 0; i < n; ++i) {
        packed[i] = (packed[i] << bits) | col.keys[i];
      }
    }
    return radix_sort_permutation(packed, total_bits);
  }

  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (const auto& col : columns) {
      if (col.keys[a] != col.keys[b]) return col.keys[a] < col.keys[b];
    }
    return false;
  });
  return perm;
}

// The old serial LSD sort run once per column, least significant first:
// a stable sort of keys of any width that shares no code with the
// column grouping of util::lexicographic_sort_permutation.
std::vector<nnz_t> column_lsd_permutation(
    std::span<const util::SortKeyColumn> columns) {
  const nnz_t n = columns.empty() ? 0 : columns[0].keys.size();
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::vector<std::uint64_t> keys(n);
  for (std::size_t c = columns.size(); c-- > 0;) {
    for (nnz_t i = 0; i < n; ++i) keys[i] = columns[c].keys[perm[i]];
    const auto pass =
        radix_sort_permutation(keys, util::bits_for_bound(columns[c].bound));
    std::vector<nnz_t> next(n);
    for (nnz_t i = 0; i < n; ++i) next[i] = perm[pass[i]];
    perm.swap(next);
  }
  return perm;
}

// Element i of the result is element perm[i] of `t` (the old
// CooTensor::apply_permutation, over a copy).
CooTensor apply_permutation(const CooTensor& t, std::span<const nnz_t> perm) {
  std::vector<value_t> values(perm.size());
  for (nnz_t i = 0; i < perm.size(); ++i) values[i] = t.values()[perm[i]];
  std::vector<std::vector<index_t>> indices(t.num_modes());
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    indices[m].resize(perm.size());
    for (nnz_t i = 0; i < perm.size(); ++i) {
      indices[m][i] = t.indices(m)[perm[i]];
    }
  }
  return CooTensor::from_parts(t.dims(), std::move(indices),
                               std::move(values));
}

std::vector<util::SortKeyColumn> columns(const CooTensor& t,
                                         std::span<const std::size_t> order) {
  std::vector<util::SortKeyColumn> cols;
  for (std::size_t m : order) cols.push_back({t.indices(m), t.dim(m)});
  return cols;
}

CooTensor sorted(const CooTensor& t, std::span<const std::size_t> order) {
  return oracle::apply_permutation(
      t, oracle::lexicographic_sort_permutation(oracle::columns(t, order)));
}

}  // namespace oracle

// memcmp equality of every column and the values.
void expect_bytes_equal(const CooTensor& got, const CooTensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.dims(), want.dims()) << what;
  ASSERT_EQ(got.nnz(), want.nnz()) << what;
  const std::size_t n = got.nnz();
  if (n == 0) return;  // empty columns may have null data()
  for (std::size_t m = 0; m < got.num_modes(); ++m) {
    EXPECT_EQ(0, std::memcmp(got.indices(m).data(), want.indices(m).data(),
                             n * sizeof(index_t)))
        << what << ": mode " << m << " column differs";
  }
  EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                           n * sizeof(value_t)))
      << what << ": values differ";
}

struct OracleCase {
  std::string name;
  std::function<CooTensor()> make;
};

CooTensor generated(std::vector<index_t> dims, nnz_t nnz, double zipf,
                    std::uint64_t seed) {
  GeneratorOptions gen;
  gen.dims = std::move(dims);
  gen.nnz = nnz;
  gen.zipf_exponents.assign(gen.dims.size(), zipf);
  gen.seed = seed;
  return generate_random(gen);
}

// Two modes of 2^16; `hot_share` of the nonzeros sit on mode-0 index
// `hot`, the rest spread uniformly. Mode-0-major keys then put most
// elements into one top-digit bucket (larger than the in-cache limit, so
// the bucket is split again), or, with every mode-0 index below 256, all
// keys share their top digit.
CooTensor crafted(nnz_t nnz, double hot_share, index_t mode0_range,
                  index_t hot, std::uint64_t seed) {
  CooTensor t({1u << 16, 1u << 16});
  Rng rng(seed);
  for (nnz_t e = 0; e < nnz; ++e) {
    const bool is_hot = rng.next_double(0.0, 1.0) < hot_share;
    const std::array<index_t, 2> c = {
        is_hot ? hot : static_cast<index_t>(rng.next_u64() % mode0_range),
        static_cast<index_t>(rng.next_u64() % (1u << 16))};
    t.push_back(c, static_cast<value_t>(e));
  }
  return t;
}

const std::vector<OracleCase>& oracle_cases() {
  static const std::vector<OracleCase> cases = {
      {"one_mode", [] { return generated({5000}, 20000, 0.8, 11); }},
      {"two_modes", [] { return generated({300, 70}, 30000, 0.6, 12); }},
      // Patents-shaped, scaled down: nnz far above the 46 x 24 x 24 cells.
      {"patents_duplicates",
       [] { return generated({46, 24, 24}, 120000, 0.55, 13); }},
      {"four_modes", [] { return generated({40, 900, 33, 7}, 40000, 0.7, 14); }},
      {"five_modes_twitch",
       [] { return generated({1550, 620, 784, 64, 64}, 50000, 0.9, 15); }},
      {"dims_of_one", [] { return generated({1, 50, 1}, 3000, 0.5, 16); }},
      {"all_ones", [] { return generated({1, 1, 1}, 100, 0.0, 17); }},
      {"nnz_0", [] { return CooTensor({4, 5, 6}); }},
      {"nnz_1", [] { return generated({4, 5, 6}, 1, 0.0, 18); }},
      {"nnz_2", [] { return generated({4, 5, 6}, 2, 0.0, 19); }},
      {"bits_63",
       [] { return generated({1u << 21, 1u << 21, 1u << 21}, 30000, 0.9, 20); }},
      {"bits_64",
       [] { return generated({65536, 65536, 65536, 65536}, 30000, 0.9, 21); }},
      {"bits_65_fallback",
       [] { return generated({1u << 21, 1u << 22, 1u << 22}, 20000, 1.1, 22); }},
      {"big_bucket", [] { return crafted(150000, 0.9, 1u << 16, 7, 23); }},
      {"equal_top_digits", [] { return crafted(50000, 0.3, 200, 3, 24); }},
      // Full-scale Twitch (15.5M x 6.2M x 783.9K x 6.1K x 6.1K): 93 bits,
      // two radix passes of 46 and 47 bits in the identity order.
      {"bits_93_twitch_full",
       [] {
         return generated({15'500'000, 6'200'000, 783'900, 6'100, 6'100},
                          20000, 1.3, 25);
       }},
  };
  return cases;
}

enum class Threads { kOne, kFour, kInsidePoolTask };

// Runs `fn` under the given host parallelism, restoring the default after.
void run_with(Threads threads, const std::function<void()>& fn) {
  set_host_parallelism(threads == Threads::kOne ? 1 : 4);
  if (threads == Threads::kInsidePoolTask) {
    std::promise<void> done;
    global_thread_pool().submit([&] {
      try {
        fn();
        done.set_value();
      } catch (...) {
        done.set_exception(std::current_exception());
      }
    });
    done.get_future().get();
  } else {
    fn();
  }
  set_host_parallelism(0);
}

class SortOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, Threads>> {};

TEST_P(SortOracle, SortedCopiesAreByteIdenticalToTheOldSort) {
  const auto& [case_index, threads] = GetParam();
  const CooTensor t = oracle_cases()[case_index].make();
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < t.num_modes(); ++m) cols.push_back(t.indices(m));

  // Every mode-major order, plus the reversed mode order.
  std::vector<std::vector<std::size_t>> orders;
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    orders.push_back(mode_major_order(t.num_modes(), d));
  }
  orders.push_back(identity_order(t.num_modes()));
  std::reverse(orders.back().begin(), orders.back().end());

  for (std::size_t o = 0; o < orders.size(); ++o) {
    const auto& order = orders[o];
    const std::string what = "order " + std::to_string(o);
    const CooTensor want = oracle::sorted(t, order);
    const auto want_perm =
        oracle::lexicographic_sort_permutation(oracle::columns(t, order));

    // Mode-major orders are the packed mode copies' orders.
    const bool mode_major = o < t.num_modes();
    PackedCopy copy;
    CooTensor in_place = t;
    std::vector<nnz_t> perm;
    run_with(threads, [&] {
      if (mode_major) copy.assign_sorted(t.dims(), cols, t.values(), o);
      in_place.sort_lexicographic(order);
      perm = util::lexicographic_sort_permutation(oracle::columns(t, order));
    });
    if (mode_major) {
      expect_bytes_equal(decode_records(copy.span()), want,
                         what + " packed copy");
    }
    expect_bytes_equal(in_place, want, what + " sort_lexicographic");
    EXPECT_EQ(perm, want_perm) << what;
  }

  // sort_by_mode is the mode-major order.
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    CooTensor in_place = t;
    run_with(threads, [&] { in_place.sort_by_mode(d); });
    expect_bytes_equal(in_place, oracle::sorted(t, orders[d]),
                       "sort_by_mode(" + std::to_string(d) + ")");
  }
}

TEST_P(SortOracle, PackedKeyPermutationMatchesTheOldSort) {
  const auto& [case_index, threads] = GetParam();
  const CooTensor t = oracle_cases()[case_index].make();
  const auto columns = oracle::columns(t, identity_order(t.num_modes()));
  std::vector<nnz_t> perm;
  run_with(threads,
           [&] { perm = util::lexicographic_sort_permutation(columns); });
  EXPECT_EQ(perm, oracle::column_lsd_permutation(columns));
}

std::string oracle_case_name(
    const ::testing::TestParamInfo<SortOracle::ParamType>& info) {
  static const char* const kThreads[] = {"threads1", "threads4",
                                         "in_pool_task"};
  return oracle_cases()[std::get<0>(info.param)].name + "_" +
         kThreads[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SortOracle,
    ::testing::Combine(::testing::Range(std::size_t{0},
                                        oracle_cases().size()),
                       ::testing::Values(Threads::kOne, Threads::kFour,
                                         Threads::kInsidePoolTask)),
    oracle_case_name);

// ---------------------------------------------------------------------------
// Value-carrying records: a packed mode copy keeps each value's bits in its
// records (8-byte records up to 40 key bits, 16-byte ones above, with a
// high-bits table for 33-40 and over 64 bits), and sort_lexicographic
// decodes them, so every key width must reproduce a stable sort byte for
// byte, with values that a float copy or compare could alter.

// Bit patterns a float round trip must not touch.
constexpr std::uint32_t kSpecialValueBits[] = {
    0x7fc00001u,  // quiet NaN with a payload
    0x7f800001u,  // signalling NaN
    0xffc12345u,  // negative NaN with a payload
    0x80000000u,  // -0.0
    0x00000001u,  // smallest denormal
    0x807fffffu,  // largest negative denormal
    0x7f800000u,  // +inf
};

// `nnz` elements over `dims` with many full-key ties: a third of them
// repeat one of `hot_count` coordinates. Values are special bit patterns
// or distinct per element, so a tie broken out of input order shows.
CooTensor tie_heavy(const std::vector<index_t>& dims, nnz_t nnz,
                    std::size_t hot_count, std::uint64_t seed) {
  CooTensor t(dims);
  Rng rng(seed);
  auto random_coords = [&] {
    std::vector<index_t> c(dims.size());
    for (std::size_t m = 0; m < dims.size(); ++m) {
      c[m] = static_cast<index_t>(rng.next_below(dims[m]));
    }
    return c;
  };
  std::vector<std::vector<index_t>> hot(hot_count);
  for (auto& c : hot) c = random_coords();
  for (nnz_t e = 0; e < nnz; ++e) {
    const auto coords =
        rng.next_below(3) == 0 ? hot[rng.next_below(hot.size())]
                               : random_coords();
    const std::uint32_t bits =
        e % 5 == 0 ? kSpecialValueBits[(e / 5) % std::size(kSpecialValueBits)]
                   : static_cast<std::uint32_t>(0x3f800000u + e);
    t.push_back(coords, std::bit_cast<value_t>(bits));
  }
  return t;
}

// The stable-sort reference: elements ordered by their coordinates under
// `order`, ties in input order, values copied as bits.
CooTensor stable_sorted(const CooTensor& t,
                        std::span<const std::size_t> order) {
  std::vector<nnz_t> perm(t.nnz());
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (std::size_t m : order) {
      if (t.indices(m)[a] != t.indices(m)[b]) {
        return t.indices(m)[a] < t.indices(m)[b];
      }
    }
    return false;
  });
  std::vector<std::vector<index_t>> indices(t.num_modes(),
                                            std::vector<index_t>(t.nnz()));
  std::vector<value_t> values(t.nnz());
  for (nnz_t i = 0; i < t.nnz(); ++i) {
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      indices[m][i] = t.indices(m)[perm[i]];
    }
    std::memcpy(&values[i], &t.values()[perm[i]], sizeof(value_t));
  }
  return CooTensor::from_parts(t.dims(), std::move(indices),
                               std::move(values));
}

struct WidthCase {
  unsigned bits;
  std::vector<index_t> dims;
};

const WidthCase kWidthCases[] = {
    {1, {2}},
    {31, {1u << 16, 1u << 15}},
    {32, {1u << 16, 1u << 16}},
    {33, {1u << 17, 1u << 16}},
    {63, {1u << 21, 1u << 21, 1u << 21}},
    {64, {1u << 16, 1u << 16, 1u << 16, 1u << 16}},
    {66, {1u << 22, 1u << 22, 1u << 22}},
    // High bits past one word: 68 of them, the leading field across the
    // first word edge; and the widest key, 8 fields of 32 bits.
    {132, std::vector<index_t>(6, 1u << 22)},
    {256, std::vector<index_t>(8, 0xffffffffu)},
    // 8-byte records of the low 32 bits plus a high-bits table up to 40
    // bits (38: the Amazon 1/500 shape), 16-byte records from 41.
    {38, {9600, 3600, 3600}},
    {40, {1u << 14, 1u << 13, 1u << 13}},
    {41, {1u << 14, 1u << 14, 1u << 13}},
    // Full-scale Amazon (4.8M x 1.8M x 1.8M) and Twitch (15.5M x 6.2M x
    // 783.9K x 6.1K x 6.1K): two radix passes each.
    {65, {4'800'000, 1'800'000, 1'800'000}},
    {93, {15'500'000, 6'200'000, 783'900, 6'100, 6'100}},
};

// The record layout a key of `bits` bits takes.
bool expect_8_byte_records(unsigned bits) {
  return bits <= util::kMaxSplitKeyBits;
}
bool expect_high_bits_table(unsigned bits) {
  return (bits > 32 && bits <= util::kMaxSplitKeyBits) || bits > 64;
}

// The stable-sort reference of `t` under every mode-major order.
std::vector<CooTensor> mode_major_references(const CooTensor& t) {
  std::vector<CooTensor> wants;
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    wants.push_back(stable_sorted(t, mode_major_order(t.num_modes(), d)));
  }
  return wants;
}

// The packed mode copies of `t` (decoded) and sort_lexicographic under
// every mode-major order, against `wants` (mode_major_references(t)).
void expect_sorted_like_reference(const CooTensor& t, const WidthCase& c,
                                  Threads threads,
                                  const std::vector<CooTensor>& wants) {
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < t.num_modes(); ++m) cols.push_back(t.indices(m));
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    const auto order = mode_major_order(t.num_modes(), d);
    std::vector<util::SortKeyColumn> key_columns;
    for (std::size_t m : order) key_columns.push_back({t.indices(m), t.dim(m)});
    ASSERT_EQ(util::packed_key_bits(key_columns), c.bits);

    const CooTensor& want = wants[d];
    PackedCopy copy;
    CooTensor in_place = t;
    run_with(threads, [&] {
      copy.assign_sorted(t.dims(), cols, t.values(), d);
      in_place.sort_lexicographic(order);
    });
    const std::string what = std::to_string(t.nnz()) + " nnz, " +
                             std::to_string(c.bits) + "-bit key, mode " +
                             std::to_string(d);
    EXPECT_EQ(copy.layout().record_bytes(),
              expect_8_byte_records(c.bits) ? 8u : 16u)
        << what;
    EXPECT_EQ(copy.layout().segmented(), expect_high_bits_table(c.bits))
        << what;
    EXPECT_EQ(copy.high_bits().empty(),
              !copy.layout().segmented() || t.nnz() == 0)
        << what;
    expect_bytes_equal(decode_records(copy.span()), want,
                       what + " packed copy");
    expect_bytes_equal(in_place, want, what + " sort_lexicographic");
  }
}

// A width case's input tensor and its references.
struct WidthInput {
  CooTensor t;
  std::vector<CooTensor> wants;
};

// tie_heavy(c.dims, nnz, hot_count, seed) for width case `case_index` and
// its references, made once and shared by the case's threads1 and
// threads4 tests (the reference sorts are most of this suite's time under
// the sanitizers). Holds the inputs of one case at a time.
const WidthInput& width_input(std::size_t case_index, nnz_t nnz,
                              std::size_t hot_count, std::uint64_t seed) {
  static std::size_t cached_case = SIZE_MAX;
  static std::map<nnz_t, WidthInput> cache;
  if (cached_case != case_index) {
    cache.clear();
    cached_case = case_index;
  }
  auto it = cache.find(nnz);
  if (it == cache.end()) {
    const WidthCase& c = kWidthCases[case_index];
    CooTensor t = tie_heavy(c.dims, nnz, hot_count, seed);
    auto wants = mode_major_references(t);
    it = cache.emplace(nnz, WidthInput{std::move(t), std::move(wants)}).first;
  }
  return it->second;
}

class RecordWidth
    : public ::testing::TestWithParam<std::tuple<std::size_t, Threads>> {};

TEST_P(RecordWidth, AssignSortedCarriesValueBitsStably) {
  const auto& [case_index, threads] = GetParam();
  const WidthCase& c = kWidthCases[case_index];
  // The large tensor takes the parallel scatter (several 2^16-element
  // chunks) and top-digit buckets past the in-cache split; the small one
  // sorts its buckets by insertion.
  for (const auto& [nnz, hot_count, seed] :
       {std::tuple{nnz_t{300000}, std::size_t{40}, 40 + case_index},
        std::tuple{nnz_t{24}, std::size_t{3}, 50 + case_index}}) {
    const WidthInput& in = width_input(case_index, nnz, hot_count, seed);
    expect_sorted_like_reference(in.t, c, threads, in.wants);
  }
}

// The width case of `bits` key bits.
const WidthCase& width_case(unsigned bits) {
  return *std::find_if(std::begin(kWidthCases), std::end(kWidthCases),
                       [bits](const WidthCase& c) { return c.bits == bits; });
}

// Record arrays of 16 MiB and more are mapped rather than allocated:
// 2.2M 8-byte records (32-bit keys) and 1.1M 16-byte ones (41-bit keys).
TEST(RecordWidthLarge, MappedWorkspacesSortLikeTheReference) {
  for (const auto& [bits, nnz, seed] :
       {std::tuple{32u, nnz_t{2200000}, 61u},
        std::tuple{41u, nnz_t{1100000}, 62u}}) {
    const WidthCase& c = width_case(bits);
    const CooTensor t = tie_heavy(c.dims, nnz, 40, seed);
    expect_sorted_like_reference(t, c, Threads::kFour,
                                 mode_major_references(t));
  }
}

// The key widths at every layout edge take their layout: 8-byte records
// up to 40 bits (with a high-bits table from 33), 16-byte records above
// (with a table from 65).
TEST(KeyLayoutTest, RecordLayoutFollowsTheKeyWidth) {
  struct Row {
    std::vector<index_t> dims;
    unsigned key_bits;
    unsigned low_bits;
    std::size_t record_bytes;
    bool segmented;
  };
  const Row rows[] = {
      {{1u << 16, 1u << 16}, 32, 32, 8, false},
      {{1u << 17, 1u << 16}, 33, 32, 8, true},
      {{1u << 20, 1u << 20}, 40, 32, 8, true},
      {{1u << 21, 1u << 20}, 41, 64, 16, false},
      {{1u << 16, 1u << 16, 1u << 16, 1u << 16}, 64, 64, 16, false},
      {{1u << 17, 1u << 16, 1u << 16, 1u << 16}, 65, 64, 16, true},
  };
  for (const Row& r : rows) {
    for (std::size_t mode = 0; mode < r.dims.size(); ++mode) {
      const KeyLayout layout(r.dims, mode);
      const std::string what = std::to_string(r.key_bits) + "-bit key, mode " +
                               std::to_string(mode);
      EXPECT_EQ(layout.key_bits(), r.key_bits) << what;
      EXPECT_EQ(layout.low_bits(), r.low_bits) << what;
      EXPECT_EQ(layout.record_bytes(), r.record_bytes) << what;
      EXPECT_EQ(layout.value_offset(), r.low_bits / 8) << what;
      EXPECT_EQ(layout.segmented(), r.segmented) << what;
    }
  }
}

// A sorted copy of `t` by `mode`, and the reference it must decode to.
void expect_copy_like_reference(const CooTensor& t, std::size_t mode,
                                const std::string& what) {
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < t.num_modes(); ++m) cols.push_back(t.indices(m));
  PackedCopy copy;
  copy.assign_sorted(t.dims(), cols, t.values(), mode);
  expect_bytes_equal(decode_records(copy.span()),
                     stable_sorted(t, mode_major_order(t.num_modes(), mode)),
                     what);
}

// 38-bit keys whose top bits every element shares: the first radix digit
// drops below bit 32, so every high bit comes from the first key and the
// copy has one segment holding them.
TEST(RecordWidthSplit, SharedTopBitsComeFromTheFirstKey) {
  // Mode 0 (14 bits, the top of the mode-0 key) fixed at 0x3abc, mode 1
  // fixed too: only mode 2's 12 bits vary, the digit sits at bit 4.
  CooTensor t({1u << 14, 1u << 12, 1u << 12});
  Rng rng(17);
  for (nnz_t e = 0; e < 5000; ++e) {
    const index_t coords[] = {0x3abc, 0x5a5,
                              static_cast<index_t>(rng.next_below(4096))};
    t.push_back(coords, std::bit_cast<value_t>(
                            static_cast<std::uint32_t>(0x3f800000u + e)));
  }
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < 3; ++m) cols.push_back(t.indices(m));
  PackedCopy copy;
  for (const Threads threads : {Threads::kOne, Threads::kFour}) {
    run_with(threads,
             [&] { copy.assign_sorted(t.dims(), cols, t.values(), 0); });
    ASSERT_EQ(copy.layout().key_bits(), 38u);
    ASSERT_EQ(copy.high_bits().size(), 1u);
    EXPECT_EQ(copy.high_bits()[0].first, 0u);
    // Key bits 32..37 are the top 6 of mode 0's field (bits 24..37).
    EXPECT_EQ(copy.high_bits()[0].high[0], 0x3abcu >> 8);
    for (std::size_t d = 0; d < 3; ++d) {
      expect_copy_like_reference(
          t, d, "shared top bits, mode " + std::to_string(d));
    }
  }
}

// No elements: no records and no table; one element: one segment.
TEST(RecordWidthSplit, EmptyAndSingleElementCopies) {
  const std::vector<index_t> dims = {9600, 3600, 3600};
  const std::vector<index_t> none;
  const std::vector<value_t> no_values;
  const std::span<const index_t> empty_cols[] = {none, none, none};
  PackedCopy copy;
  copy.assign_sorted(dims, empty_cols, no_values, 1);
  EXPECT_TRUE(copy.layout().segmented());
  EXPECT_EQ(copy.nnz(), 0u);
  EXPECT_TRUE(copy.bytes().empty());
  EXPECT_TRUE(copy.high_bits().empty());
  EXPECT_EQ(decode_records(copy.span()).nnz(), 0u);

  CooTensor one(dims);
  const index_t coords[] = {9599, 17, 3599};
  one.push_back(coords, -0.0f);
  for (std::size_t d = 0; d < 3; ++d) {
    std::vector<std::span<const index_t>> cols;
    for (std::size_t m = 0; m < 3; ++m) cols.push_back(one.indices(m));
    copy.assign_sorted(dims, cols, one.values(), d);
    ASSERT_EQ(copy.high_bits().size(), 1u);
    EXPECT_EQ(copy.high_bits()[0].first, 0u);
    expect_copy_like_reference(one, d,
                               "one element, mode " + std::to_string(d));
  }
}

std::string width_case_name(
    const ::testing::TestParamInfo<RecordWidth::ParamType>& info) {
  return "bits" + std::to_string(kWidthCases[std::get<0>(info.param)].bits) +
         (std::get<1>(info.param) == Threads::kOne ? "_threads1"
                                                   : "_threads4");
}

INSTANTIATE_TEST_SUITE_P(
    Widths, RecordWidth,
    ::testing::Combine(::testing::Range(std::size_t{0},
                                        std::size(kWidthCases)),
                       ::testing::Values(Threads::kOne, Threads::kFour)),
    width_case_name);

// The mode copies an AMPED build keeps, resident, spilled, and kept
// resident after their spill failed (degraded), decode to the reference at
// every record width.
TEST(RecordWidthBuilds, ResidentSpilledAndDegradedCopiesSortLikeTheReference) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() /
                   ("amped_sorting_builds_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  AmpedBuildOptions resident;
  resident.storage = BuildStorage::kResident;
  AmpedBuildOptions spilled;
  spilled.storage = BuildStorage::kSpilled;
  spilled.spill_dir = dir.string();
  for (std::size_t i = 0; i < std::size(kWidthCases); ++i) {
    const WidthCase& c = kWidthCases[i];
    const CooTensor t = tie_heavy(c.dims, 20000, 20, 70 + i);
    AmpedTensor degraded;
    {
      // Every spill fails validation: each copy stays resident.
      fault::FaultScope scope("spill.verify", {.nth = 1, .times = 1u << 20});
      degraded = AmpedTensor::build(t, spilled);
    }
    const AmpedTensor builds[] = {AmpedTensor::build(t, resident),
                                  AmpedTensor::build(t, spilled),
                                  std::move(degraded)};
    const bool spill[] = {false, true, false};
    for (std::size_t d = 0; d < t.num_modes(); ++d) {
      const auto order = mode_major_order(t.num_modes(), d);
      const CooTensor want = stable_sorted(t, order);
      for (std::size_t b = 0; b < std::size(builds); ++b) {
        const std::string what = std::to_string(c.bits) + "-bit key, mode " +
                                 std::to_string(d) + ", build " +
                                 std::to_string(b);
        ASSERT_EQ(builds[b].mode_copy(d).spilled(), spill[b]) << what;
        expect_bytes_equal(decode_copy(builds[b].mode_copy(d)), want, what);
      }
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace amped
