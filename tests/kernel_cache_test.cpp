// Tile-program dispatch (core/kernel_cache): bit-identity against the
// single-pass generic kernel across the full shape space, cache key and
// find-or-create semantics, and thread-safety of the lock-free lookup
// path (the concurrency tests run in the TSan CI lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
#include "core/partition.hpp"
#include "tensor/packed_copy.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

CooTensor random_tensor(std::size_t modes, nnz_t nnz, std::uint64_t seed,
                        bool sorted) {
  GeneratorOptions opt;
  // Mixed mode sizes so runs, repeats, and scattered rows all occur.
  const index_t sizes[] = {96, 40, 24, 12, 8, 6, 5, 4};
  opt.dims.assign(sizes, sizes + modes);
  opt.nnz = nnz;
  opt.zipf_exponents.assign(modes, 0.0);
  opt.zipf_exponents[0] = 0.9;
  opt.seed = seed;
  auto t = generate_random(opt);
  if (sorted) t.sort_by_mode(0);
  return t;
}

// memcmp-level equality: tiled dispatch must be bit-identical to the
// generic kernel, not merely close — each rank column performs the same
// FP operation sequence in the same order regardless of tiling.
void expect_bit_identical(const DenseMatrix& tiled,
                          const DenseMatrix& generic,
                          const std::string& what) {
  ASSERT_EQ(tiled.data().size(), generic.data().size());
  EXPECT_EQ(std::memcmp(tiled.data().data(), generic.data().data(),
                        tiled.data().size() * sizeof(value_t)),
            0)
      << what;
}

void expect_same_stats(const sim::EcBlockStats& tiled,
                       const sim::EcBlockStats& generic,
                       const std::string& what) {
  EXPECT_EQ(tiled.nnz, generic.nnz) << what;
  EXPECT_EQ(tiled.output_runs, generic.output_runs) << what;
  EXPECT_EQ(tiled.max_run, generic.max_run) << what;
  EXPECT_EQ(tiled.max_multiplicity, generic.max_multiplicity) << what;
  EXPECT_EQ(tiled.modes, generic.modes) << what;
  EXPECT_EQ(tiled.rank, generic.rank) << what;
  EXPECT_EQ(tiled.block_width, generic.block_width) << what;
}

// Runs elements [lo, hi) through both kernels, accumulating into `tiled`
// and `generic`, and compares the block stats.
void run_both(const CooTensor& t, nnz_t lo, nnz_t hi, std::size_t mode,
              const FactorSet& f, BlockOrder order, DenseMatrix& tiled,
              DenseMatrix& generic, const std::string& what) {
  const auto st = run_ec_block(t, lo, hi, mode, f, tiled, order);
  const auto sg = run_ec_block_generic(t, lo, hi, mode, f, generic, order);
  expect_same_stats(st, sg, what);
}

std::string describe(std::size_t modes, std::size_t rank, bool sorted) {
  return "modes " + std::to_string(modes) + " rank " + std::to_string(rank) +
         (sorted ? " sorted" : " unsorted");
}

// Every rank 1..200 x mode counts 1..6 x sorted/unsorted: identical
// output bits and identical block stats. 1-mode and 6-mode tensors take
// the runtime input-count loop; 5-mode tensors the 4-input unroll.
TEST(KernelCacheEquivalence, TiledMatchesGenericAcrossShapes) {
  for (const std::size_t modes : {1u, 2u, 3u, 4u, 5u, 6u}) {
    for (const bool sorted : {true, false}) {
      const auto t = random_tensor(modes, 800, 100 + modes, sorted);
      const auto order =
          sorted ? BlockOrder::kOutputSorted : BlockOrder::kUnsorted;
      for (std::size_t rank = 1; rank <= 200; ++rank) {
        Rng rng(7 + rank);
        const FactorSet f(t.dims(), rank, rng);
        DenseMatrix tiled(t.dim(0), rank);
        DenseMatrix generic(t.dim(0), rank);
        const auto what = describe(modes, rank, sorted);
        run_both(t, 0, t.nnz(), 0, f, order, tiled, generic, what);
        expect_bit_identical(tiled, generic, what);
      }
    }
  }
}

// Partial ranges (block edges fall inside runs) and every output mode,
// on sorted and unsorted 3- and 5-mode tensors.
TEST(KernelCacheEquivalence, PartialRangesAndOtherModes) {
  for (const std::size_t modes : {3u, 5u}) {
    for (const bool sorted : {true, false}) {
      const auto t = random_tensor(modes, 1200, 42 + modes, sorted);
      for (const std::size_t rank : {20u, 32u, 48u, 100u}) {
        Rng rng(5 + rank);
        const FactorSet f(t.dims(), rank, rng);
        for (std::size_t mode = 0; mode < modes; ++mode) {
          // Only mode 0 is sorted by its output index.
          const auto order = sorted && mode == 0 ? BlockOrder::kOutputSorted
                                                 : BlockOrder::kUnsorted;
          const auto what = describe(modes, rank, sorted) + " mode " +
                            std::to_string(mode);
          DenseMatrix tiled(t.dim(mode), rank);
          DenseMatrix generic(t.dim(mode), rank);
          for (nnz_t lo = 0; lo < t.nnz(); lo += 379) {
            const nnz_t hi = std::min<nnz_t>(t.nnz(), lo + 379);
            run_both(t, lo, hi, mode, f, order, tiled, generic, what);
          }
          expect_bit_identical(tiled, generic, what);
        }
      }
    }
  }
}

// Ranks that exercise every register piece of a tile (64-, 32-, 16-byte
// and scalar) and multi-tile programs.
constexpr std::size_t kPieceRanks[] = {1,  3,  4,  7,  8,  12, 15,
                                       16, 28, 32, 60, 64, 100, 103};

// A 3- and a 5-mode tensor whose mode-0 indices follow `out_index(n)`.
CooTensor tensor_with_output(std::size_t modes, nnz_t nnz,
                             index_t (*out_index)(nnz_t)) {
  auto t = random_tensor(modes, nnz, 900 + modes, false);
  auto col = t.mutable_indices(0);
  for (nnz_t n = 0; n < nnz; ++n) col[n] = out_index(n);
  return t;
}

// Hand-built run structures: a block that is one long run, a block where
// every element is its own run, blocks that start and end inside a run,
// and 1-element blocks.
TEST(KernelCacheEquivalence, RunStructureEdgeCases) {
  struct Case {
    const char* name;
    index_t (*out_index)(nnz_t);
    nnz_t lo, hi;
  };
  const Case cases[] = {
      {"one long run", [](nnz_t) { return index_t{7}; }, 0, 500},
      {"every element its own run",
       [](nnz_t n) { return static_cast<index_t>(n % 96); }, 0, 500},
      {"starts and ends inside runs of 50",
       [](nnz_t n) { return static_cast<index_t>(n / 50); }, 23, 377},
      {"inside one run of 50",
       [](nnz_t n) { return static_cast<index_t>(n / 50); }, 110, 140},
      {"1-element block", [](nnz_t n) { return static_cast<index_t>(n / 3); },
       4, 5},
      {"1-element block at a run start",
       [](nnz_t n) { return static_cast<index_t>(n / 3); }, 6, 7},
  };
  for (const std::size_t modes : {3u, 5u}) {
    for (const Case& c : cases) {
      const auto t = tensor_with_output(modes, 500, c.out_index);
      for (const std::size_t rank : kPieceRanks) {
        Rng rng(11 + rank);
        const FactorSet f(t.dims(), rank, rng);
        DenseMatrix tiled(t.dim(0), rank);
        DenseMatrix generic(t.dim(0), rank);
        const auto what = std::string(c.name) + " " +
                          describe(modes, rank, true);
        run_both(t, c.lo, c.hi, 0, f, BlockOrder::kOutputSorted, tiled,
                 generic, what);
        expect_bit_identical(tiled, generic, what);
      }
    }
  }
}

// Every product is -0.0 (value -0.0, times non-negative factor rows
// unless the tensor has one mode) and every output row starts at -0.0. The block's first run is seeded as
// 0 + prod = +0.0, so its row ends +0.0; every later run is seeded with
// prod itself and its row stays -0.0 + -0.0 = -0.0. A kernel seeding the
// first run with prod, or later runs with 0 + prod, flips a sign bit.
TEST(KernelCacheEquivalence, NegativeZeroFirstProductPinsSeeding) {
  for (const std::size_t modes : {1u, 3u, 5u}) {
    auto t = tensor_with_output(
        modes, 60, [](nnz_t n) { return static_cast<index_t>(n / 4); });
    for (auto& v : t.mutable_values()) v = -0.0f;
    for (const std::size_t rank : kPieceRanks) {
      Rng rng(13 + rank);
      const FactorSet f(t.dims(), rank, rng);
      DenseMatrix tiled(t.dim(0), rank);
      DenseMatrix generic(t.dim(0), rank);
      for (auto& v : tiled.data()) v = -0.0f;
      for (auto& v : generic.data()) v = -0.0f;
      const auto what = describe(modes, rank, true);
      // Starts inside run 1 (rows 1..14 are written).
      run_both(t, 5, t.nnz(), 0, f, BlockOrder::kOutputSorted, tiled,
               generic, what);
      expect_bit_identical(tiled, generic, what);
      for (std::size_t c = 0; c < rank; ++c) {
        EXPECT_FALSE(std::signbit(tiled(1, c))) << what << " col " << c;
        EXPECT_TRUE(std::signbit(tiled(2, c))) << what << " col " << c;
        EXPECT_TRUE(std::signbit(tiled(14, c))) << what << " col " << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISP split: the run statistics the stats tile records per window must be
// exactly what an independent RunStatsAccumulator scan over each window
// reports, and must price to the same seconds bit for bit.

constexpr std::size_t kBlockWidth = 32;

// Runs output-mode elements [lo, hi) of `t` through the sorted tile
// program twice, with and without an ISP split of `size`: the outputs and
// block stats must match (the split only observes), and every window must
// match the rescan field by field.
void expect_split_matches_rescan(const CooTensor& t, std::size_t mode,
                                 nnz_t lo, nnz_t hi, nnz_t size,
                                 const FactorSet& f, const std::string& what) {
  const auto shape =
      KernelShape::of(t.num_modes(), f.rank(), BlockOrder::kOutputSorted);
  const TileProgram& program = KernelCache::global().find_or_create(shape);
  std::vector<sim::EcBlockStats> isps(isp_count(hi - lo, size));
  const IspSplit split{size, isps};
  DenseMatrix with_split(t.dim(mode), f.rank());
  DenseMatrix plain(t.dim(mode), f.rank());
  const auto s_split =
      run_ec_block(program, t, lo, hi, mode, f, with_split, &split);
  const auto s_plain = run_ec_block(program, t, lo, hi, mode, f, plain);
  expect_same_stats(s_split, s_plain, what + " block");
  expect_bit_identical(with_split, plain, what);

  const sim::CostModel cost(sim::rtx6000_ada_spec());
  const sim::KernelProfile profile;
  const index_t* out_idx = t.indices(mode).data();
  for (std::size_t k = 0; k < isps.size(); ++k) {
    const nnz_t w_lo = lo + k * size;
    const nnz_t w_hi = std::min(hi, w_lo + size);
    RunStatsAccumulator acc(shape);
    for (nnz_t n = w_lo; n < w_hi; ++n) acc.feed(out_idx[n]);
    const auto expected = acc.finish(kBlockWidth);
    sim::EcBlockStats got = isps[k];
    got.block_width = kBlockWidth;
    const auto where = what + " isp " + std::to_string(k);
    expect_same_stats(got, expected, where);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cost.ec_block_seconds(got, profile)),
              std::bit_cast<std::uint64_t>(
                  cost.ec_block_seconds(expected, profile)))
        << where;
  }
}

// The record source over absolute records [lo, hi) of `records` against
// the COO source over the same elements of `decoded` (its decode), both
// with an ISP split of `size`: memcmp-equal output, equal block and
// per-window statistics.
void expect_records_match_coo(const RecordSpan& records,
                              const CooTensor& decoded, nnz_t lo, nnz_t hi,
                              nnz_t size, const FactorSet& f,
                              const std::string& what) {
  const std::size_t mode = records.layout->mode();
  const auto shape = KernelShape::of(decoded.num_modes(), f.rank(),
                                     BlockOrder::kOutputSorted);
  const TileProgram& program = KernelCache::global().find_or_create(shape);
  std::vector<sim::EcBlockStats> rec_isps(isp_count(hi - lo, size));
  std::vector<sim::EcBlockStats> coo_isps(rec_isps.size());
  const IspSplit rec_split{size, rec_isps};
  const IspSplit coo_split{size, coo_isps};
  DenseMatrix from_records(decoded.dim(mode), f.rank());
  DenseMatrix from_coo(decoded.dim(mode), f.rank());
  const auto sr =
      run_ec_block(program, records, lo, hi, f, from_records, &rec_split);
  const auto sc = run_ec_block(program, decoded, lo, hi, mode, f, from_coo,
                               &coo_split);
  expect_same_stats(sr, sc, what + " block");
  expect_bit_identical(from_records, from_coo, what);
  for (std::size_t k = 0; k < rec_isps.size(); ++k) {
    expect_same_stats(rec_isps[k], coo_isps[k],
                      what + " isp " + std::to_string(k));
  }
}

// ISP sizes 1, 2, 7, n-1, n and n+5 over whole blocks and a begin > 0
// block, across mode classes 2/3/4, the 5-mode forwarded unroll and the
// 6-mode runtime loop, and single- and multi-tile ranks (the split is
// filled by the first tile only, so nothing may count twice).
TEST(KernelCacheIspSplit, MatchesPerWindowRescan) {
  for (const std::size_t modes : {2u, 3u, 4u, 5u, 6u}) {
    const auto t = random_tensor(modes, 700, 300 + modes, true);
    for (const std::size_t rank : {1u, 3u, 32u, 100u}) {
      Rng rng(17 + rank);
      const FactorSet f(t.dims(), rank, rng);
      const std::pair<nnz_t, nnz_t> ranges[] = {{0, t.nnz()}, {41, 613}};
      for (const auto& [lo, hi] : ranges) {
        const nnz_t n = hi - lo;
        for (const nnz_t size : {nnz_t{1}, nnz_t{2}, nnz_t{7}, n - 1, n,
                                 n + 5}) {
          expect_split_matches_rescan(
              t, 0, lo, hi, size, f,
              describe(modes, rank, true) + " [" + std::to_string(lo) +
                  "," + std::to_string(hi) + ") isp " + std::to_string(size));
        }
      }
    }
  }
}

// Hand-built run structures against window edges: runs that end exactly
// on a window boundary, runs spanning three or more windows, one run
// covering the whole block, and single-element blocks.
TEST(KernelCacheIspSplit, RunsAgainstWindowEdges) {
  struct Case {
    const char* name;
    index_t (*out_index)(nnz_t);
    nnz_t lo, hi;
    std::vector<nnz_t> sizes;
  };
  const std::vector<Case> cases = {
      // Runs of 7 from element 0: every run ends on a 7- or 14-window
      // edge; at size 3 and 5 they straddle edges.
      {"runs of 7", [](nnz_t n) { return static_cast<index_t>(n / 7); }, 0,
       350, {3, 5, 7, 14}},
      // Runs of 50 starting mid-run: each spans 3+ windows of 7 or 16.
      {"runs of 50 from 23",
       [](nnz_t n) { return static_cast<index_t>(n / 50); }, 23, 377,
       {1, 7, 16, 27}},
      {"one long run", [](nnz_t) { return index_t{7}; }, 0, 400,
       {1, 3, 399, 400, 405}},
      {"every element its own run",
       [](nnz_t n) { return static_cast<index_t>(n % 96); }, 5, 300,
       {1, 2, 7}},
      {"1-element block", [](nnz_t n) { return static_cast<index_t>(n / 3); },
       4, 5, {1, 2, 6}},
      {"1-element block at a run start",
       [](nnz_t n) { return static_cast<index_t>(n / 3); }, 6, 7, {1, 6}},
  };
  for (const std::size_t modes : {3u, 5u}) {
    for (const Case& c : cases) {
      const auto t = tensor_with_output(modes, 500, c.out_index);
      for (const std::size_t rank : {1u, 32u, 100u}) {
        Rng rng(19 + rank);
        const FactorSet f(t.dims(), rank, rng);
        for (const nnz_t size : c.sizes) {
          expect_split_matches_rescan(
              t, 0, c.lo, c.hi, size, f,
              std::string(c.name) + " " + describe(modes, rank, true) +
                  " isp " + std::to_string(size));
        }
      }
    }
  }
}

// Every shard of every mode of a built AMPED tensor, split the way the
// shard kernel splits it on the default (142-SM) and the heterogeneous
// platforms' devices, and with an explicit ISP size.
TEST(KernelCacheIspSplit, EveryShardOfABuiltTensor) {
  GeneratorOptions gen;
  gen.dims = {300, 200, 120};
  gen.nnz = 30000;
  gen.zipf_exponents = {0.9, 0.6, 0.3};
  gen.seed = 23;
  AmpedBuildOptions build;
  build.num_gpus = 4;
  build.shards_per_gpu = 3;
  const auto tensor = AmpedTensor::build(generate_random(gen), build);
  Rng rng(29);
  const FactorSet f(tensor.dims(), 32, rng);
  const int sm_counts[] = {sim::rtx6000_ada_spec().sm_count,
                           sim::rtx_a4000_spec().sm_count};
  for (std::size_t d = 0; d < tensor.num_modes(); ++d) {
    const auto& copy = tensor.mode_copy(d);
    ASSERT_FALSE(copy.spilled());
    const CooTensor decoded = decode_copy(copy);
    for (const Shard& shard : copy.partition.shards) {
      if (shard.nnz() == 0) continue;
      std::vector<nnz_t> sizes = {nnz_t{100}};
      for (const int sm : sm_counts) {
        sizes.push_back(std::max<nnz_t>(
            kBlockWidth, (shard.nnz() + sm - 1) / static_cast<nnz_t>(sm)));
      }
      for (const nnz_t size : sizes) {
        const std::string what = "mode " + std::to_string(d) +
                                 " shard at " +
                                 std::to_string(shard.nnz_begin) + " isp " +
                                 std::to_string(size);
        expect_split_matches_rescan(decoded, d, shard.nnz_begin,
                                    shard.nnz_end, size, f, what);
        expect_records_match_coo(copy.records.span(), decoded,
                                 shard.nnz_begin, shard.nnz_end, size, f,
                                 what + " records");
      }
    }
  }
}

TEST(KernelCacheIspSplit, RejectsUnsortedProgramsAndBadSplits) {
  const auto t = random_tensor(3, 100, 31, true);
  Rng rng(37);
  const FactorSet f(t.dims(), 8, rng);
  DenseMatrix out(t.dim(0), 8);
  std::vector<sim::EcBlockStats> isps(10);
  const IspSplit split{10, isps};
  const TileProgram& unsorted = KernelCache::global().find_or_create(
      KernelShape::of(3, 8, BlockOrder::kUnsorted));
  EXPECT_THROW(run_ec_block(unsorted, t, 0, 100, 0, f, out, &split),
               std::invalid_argument);
  const TileProgram& sorted = KernelCache::global().find_or_create(
      KernelShape::of(3, 8, BlockOrder::kOutputSorted));
  const IspSplit zero_size{0, isps};
  EXPECT_THROW(run_ec_block(sorted, t, 0, 100, 0, f, out, &zero_size),
               std::invalid_argument);
  const IspSplit short_span{9, isps};  // 100 / 9 needs 12 entries
  EXPECT_NO_THROW(run_ec_block(sorted, t, 0, 100, 0, f, out, &split));
  EXPECT_THROW(run_ec_block(sorted, t, 0, 100, 0, f, out, &short_span),
               std::invalid_argument);
}

TEST(KernelShapeTest, KeyBucketsModeClassAndOrder) {
  const auto a = KernelShape::of(3, 100, BlockOrder::kOutputSorted);
  EXPECT_EQ(a.rank, 100u);
  EXPECT_EQ(a.modes, 3u);
  EXPECT_EQ(a.mode_class(), 3u);
  EXPECT_EQ(a.index_width, sizeof(index_t));

  // Distinct rank, mode class, or order -> distinct keys.
  EXPECT_FALSE(a == KernelShape::of(3, 101, BlockOrder::kOutputSorted));
  EXPECT_FALSE(a == KernelShape::of(4, 100, BlockOrder::kOutputSorted));
  EXPECT_FALSE(a == KernelShape::of(3, 100, BlockOrder::kUnsorted));
  // >=5-mode tensors share the generic-fallback bucket.
  EXPECT_EQ(KernelShape::of(5, 100, BlockOrder::kUnsorted).mode_class(), 0u);
  EXPECT_TRUE(KernelShape::of(5, 100, BlockOrder::kUnsorted) ==
              KernelShape::of(6, 100, BlockOrder::kUnsorted));
}

TEST(KernelCacheTest, FindOrCreateIsIdempotentAndCounts) {
  auto& cache = KernelCache::global();
  // A rank distinct per run of this binary is not possible (the cache is
  // process-global), so use a corner of the shape space the other tests
  // do not touch and assert relative growth.
  const auto shape = KernelShape::of(4, 199, BlockOrder::kUnsorted);
  const std::size_t before = cache.size();
  const auto& first = cache.find_or_create(shape);
  ASSERT_GE(cache.size(), before);  // maybe created just now
  const auto& second = cache.find_or_create(shape);
  EXPECT_EQ(&first, &second);  // stable handle, one program per shape
  EXPECT_EQ(cache.size(), cache.size());

  // Tile decomposition is the greedy 64/32/16/8 + remainder split and
  // covers the rank exactly.
  std::size_t covered = 0;
  for (const auto& tile : first.tiles()) {
    EXPECT_EQ(tile.col, covered);
    covered += tile.width;
  }
  EXPECT_EQ(covered, 199u);
  const auto widths = sim::ec_tile_widths(199);
  ASSERT_EQ(widths.size(), first.tiles().size());

  // Metrics: a fresh lookup of a warm shape is a hit.
  const auto hits_before = metrics::counter("kernel_cache.hits").value();
  cache.find_or_create(shape);
  EXPECT_GT(metrics::counter("kernel_cache.hits").value(), hits_before);
  EXPECT_GT(metrics::counter("kernel_cache.shapes").value(), 0u);
  EXPECT_GT(metrics::counter("kernel_cache.misses").value(), 0u);
}

TEST(KernelCacheTest, TileWidthDecomposition) {
  using W = std::vector<std::size_t>;
  EXPECT_EQ(sim::ec_tile_widths(8), (W{8}));
  EXPECT_EQ(sim::ec_tile_widths(16), (W{16}));
  EXPECT_EQ(sim::ec_tile_widths(32), (W{32}));
  EXPECT_EQ(sim::ec_tile_widths(64), (W{64}));
  EXPECT_EQ(sim::ec_tile_widths(3), (W{3}));
  // Off-menu ranks: greedy 64s + one widest multiple-of-4 tile + a <=3
  // remainder, so the pass count (each pass re-streams coordinates)
  // stays minimal.
  EXPECT_EQ(sim::ec_tile_widths(20), (W{20}));
  EXPECT_EQ(sim::ec_tile_widths(48), (W{48}));
  EXPECT_EQ(sim::ec_tile_widths(100), (W{64, 36}));
  EXPECT_EQ(sim::ec_tile_widths(103), (W{64, 36, 3}));
  EXPECT_EQ(sim::ec_tile_widths(200), (W{64, 64, 64, 8}));
  EXPECT_TRUE(sim::ec_tile_widths(0).empty());
}

// Every width the decomposition emits has an instantiated pass: a width
// without one throws instead of running as a narrower pass, so building
// every rank's program proves the menu and the decomposition agree.
TEST(KernelCacheTest, EveryRankUpTo256BuildsAndCoversItsColumns) {
  auto& cache = KernelCache::global();
  for (std::size_t rank = 1; rank <= 256; ++rank) {
    for (const std::size_t modes : {3u, 5u}) {
      const auto shape =
          KernelShape::of(modes, rank, BlockOrder::kOutputSorted);
      const TileProgram* program = nullptr;
      ASSERT_NO_THROW(program = &cache.find_or_create(shape))
          << "rank " << rank << ", " << modes << " modes";
      std::size_t covered = 0;
      for (const auto& tile : program->tiles()) {
        EXPECT_EQ(tile.col, covered) << "rank " << rank;
        EXPECT_GT(tile.width, 0u) << "rank " << rank;
        EXPECT_NE(tile.fn, nullptr) << "rank " << rank;
        covered += tile.width;
      }
      EXPECT_EQ(covered, rank) << modes << " modes";
    }
  }
}

// Hammer find-or-create from the pool across a band of shapes: every
// thread must observe exactly one program per shape (stable addresses),
// with no data race on the lock-free bucket walk. Runs under TSan in CI.
TEST(KernelCacheConcurrency, FindOrCreateFromManyThreads) {
  auto& cache = KernelCache::global();
  constexpr std::size_t kShapes = 24;
  constexpr std::size_t kProbes = 64;
  std::vector<std::atomic<const TileProgram*>> seen(kShapes);
  std::atomic<bool> mismatch{false};

  ThreadPool pool(8);
  pool.parallel_for(kShapes * kProbes, [&](std::size_t i) {
    const std::size_t s = i % kShapes;
    // Ranks 501.. keep this band disjoint from other tests' shapes.
    const auto shape = KernelShape::of(
        2 + s % 4, 501 + s,
        s % 2 ? BlockOrder::kOutputSorted : BlockOrder::kUnsorted);
    const TileProgram* program = &cache.find_or_create(shape);
    const TileProgram* expected = nullptr;
    if (!seen[s].compare_exchange_strong(expected, program) &&
        expected != program) {
      mismatch.store(true);
    }
  });
  pool.wait_idle();
  EXPECT_FALSE(mismatch.load());
  for (const auto& p : seen) EXPECT_NE(p.load(), nullptr);
}

// Concurrent dispatch through the cache while other threads are still
// inserting: lanes run disjoint output matrices, results must match the
// serial generic kernel bit for bit.
TEST(KernelCacheConcurrency, ConcurrentDispatchMatchesGeneric) {
  const auto t = random_tensor(3, 2000, 77, true);
  constexpr std::size_t kLanes = 8;
  const std::size_t base_rank = 90;  // 90..97: all off-menu, multi-tile
  std::vector<DenseMatrix> outs;
  std::vector<FactorSet> factor_sets;
  for (std::size_t l = 0; l < kLanes; ++l) {
    Rng rng(200 + l);
    factor_sets.emplace_back(t.dims(), base_rank + l, rng);
    outs.emplace_back(t.dim(0), base_rank + l);
  }

  ThreadPool pool(kLanes);
  pool.parallel_for(kLanes, [&](std::size_t l) {
    run_ec_block(t, 0, t.nnz(), 0, factor_sets[l], outs[l],
                 BlockOrder::kOutputSorted);
  });
  pool.wait_idle();

  for (std::size_t l = 0; l < kLanes; ++l) {
    DenseMatrix generic(t.dim(0), base_rank + l);
    run_ec_block_generic(t, 0, t.nnz(), 0, factor_sets[l], generic,
                         BlockOrder::kOutputSorted);
    expect_bit_identical(outs[l], generic,
                         describe(3, base_rank + l, true));
  }
}

// ---------------------------------------------------------------------------
// Record source: packed mode copies (tensor/packed_copy.hpp) run through
// the tile programs against the generic kernel on their decoded COO.

// `nnz` elements over `dims`, skewed so output rows repeat.
CooTensor skewed_tensor(std::vector<index_t> dims, nnz_t nnz,
                        std::uint64_t seed) {
  GeneratorOptions opt;
  opt.dims = std::move(dims);
  opt.nnz = nnz;
  opt.zipf_exponents.assign(opt.dims.size(), 0.3);
  opt.zipf_exponents[0] = 0.9;
  opt.seed = seed;
  return generate_random(opt);
}

PackedCopy packed_copy_of(const CooTensor& t, std::size_t mode) {
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < t.num_modes(); ++m) cols.push_back(t.indices(m));
  PackedCopy copy;
  copy.assign_sorted(t.dims(), cols, t.values(), mode);
  return copy;
}

// Runs absolute records [lo, hi) of `span` through the record source with
// an ISP split and compares, by memcmp, with the generic kernel on the
// decoded elements; the split's windows against a rescan of the decoded
// output index.
void expect_records_match_generic(const RecordSpan& span,
                                  const CooTensor& decoded, nnz_t lo,
                                  nnz_t hi, const FactorSet& f, nnz_t size,
                                  const std::string& what) {
  const std::size_t mode = span.layout->mode();
  const std::size_t rank = f.rank();
  const auto shape = KernelShape::of(decoded.num_modes(), rank,
                                     BlockOrder::kOutputSorted);
  const TileProgram& program = KernelCache::global().find_or_create(shape);
  std::vector<sim::EcBlockStats> isps(isp_count(hi - lo, size));
  const IspSplit split{size, isps};
  DenseMatrix records(decoded.dim(mode), rank);
  DenseMatrix generic(decoded.dim(mode), rank);
  const auto sr = run_ec_block(program, span, lo, hi, f, records, &split);
  const auto sg = run_ec_block_generic(decoded, lo - span.base,
                                       hi - span.base, mode, f, generic,
                                       BlockOrder::kOutputSorted);
  expect_same_stats(sr, sg, what + " block");
  expect_bit_identical(records, generic, what);
  const index_t* out_idx = decoded.indices(mode).data();
  for (std::size_t k = 0; k < isps.size(); ++k) {
    const nnz_t w_lo = lo + k * size;
    const nnz_t w_hi = std::min(hi, w_lo + size);
    RunStatsAccumulator acc(shape);
    for (nnz_t n = w_lo; n < w_hi; ++n) acc.feed(out_idx[n - span.base]);
    sim::EcBlockStats got = isps[k];
    got.block_width = kBlockWidth;
    expect_same_stats(got, acc.finish(kBlockWidth),
                      what + " isp " + std::to_string(k));
  }
}

struct RecordCase {
  const char* name;
  std::vector<index_t> dims;
  unsigned key_bits;
};

// Key widths around every record-layout edge (31/32 bits: 8-byte records;
// 33/38/40: 8-byte records of the low 32 bits and a high-bits table; 64:
// 16-byte; 66, 78 and 104: 16-byte records and a table, 78 and 104 with
// whole fields in the high word, 104 with about one segment per record),
// a mode of extent 1, and 2- to 8-mode tensors.
const RecordCase kRecordCases[] = {
    {"bits31_2modes", {1u << 16, 1u << 15}, 31},
    {"bits32_3modes", {2048, 2048, 1024}, 32},
    {"bits33_3modes", {2048, 2048, 2048}, 33},
    {"bits64_6modes", {2048, 2048, 2048, 2048, 1024, 1024}, 64},
    {"bits66_6modes", {2048, 2048, 2048, 2048, 2048, 2048}, 66},
    {"bits78_6modes", {8192, 8192, 8192, 8192, 8192, 8192}, 78},
    {"extent1_4modes", {1, 300, 40, 7}, 1 + 9 + 6 + 3},
    {"bits14_5modes", {16, 8, 4, 4, 4}, 4 + 3 + 2 + 2 + 2},
    {"bits38_3modes", {9600, 3600, 3600}, 38},  // the Amazon 1/500 shape
    {"bits40_5modes", {256, 256, 256, 256, 256}, 40},
    {"bits104_8modes", std::vector<index_t>(8, 8192), 104},
};

// The record width: 8 bytes up to 40 key bits, 16 above.
RecordKind expected_kind(unsigned key_bits) {
  return key_bits <= 40 ? kRecords8 : kRecords16;
}

class RecordSource : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecordSource, EveryModeMatchesTheGenericKernelOnItsDecode) {
  const RecordCase& c = kRecordCases[GetParam()];
  const CooTensor t = skewed_tensor(c.dims, 6000, 100 + GetParam());
  ASSERT_EQ(KeyLayout::key_bits_of(t.dims()), c.key_bits);
  std::vector<FactorSet> factors;
  for (const std::size_t rank : {1u, 32u, 100u}) {
    Rng rng(rank + GetParam());
    factors.emplace_back(t.dims(), rank, rng);
  }
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    const PackedCopy copy = packed_copy_of(t, d);
    const RecordSpan span = copy.span();
    const RecordKind kind = expected_kind(c.key_bits);
    ASSERT_EQ(record_kind(copy.layout()), kind);
    ASSERT_EQ(copy.layout().record_bytes(), kind == kRecords8 ? 8u : 16u);
    // A table carries the key bits past the record's low 32 or 64.
    ASSERT_EQ(!copy.high_bits().empty(),
              c.key_bits > (kind == kRecords8 ? 32u : 64u));
    const CooTensor decoded = decode_records(span);
    const auto partition = build_mode_partition(span, 5);
    const nnz_t n = copy.nnz();
    for (const FactorSet& f : factors) {
      const std::string what = std::string(c.name) + " mode " +
                               std::to_string(d) + " rank " +
                               std::to_string(f.rank());
      expect_records_match_generic(span, decoded, 0, n, f, 97,
                                   what + " whole copy");
      expect_records_match_generic(span, decoded, n / 5, n * 3 / 4, f, 500,
                                   what + " middle");
      expect_records_match_generic(span, decoded, n / 2, n / 2, f, 10,
                                   what + " empty range");
      for (const Shard& s : partition.shards) {
        expect_records_match_generic(
            span, decoded, s.nnz_begin, s.nnz_end, f, 64,
            what + " shard at " + std::to_string(s.nnz_begin));
      }
      // The same shard staged into a lane-style buffer (base != 0).
      const Shard& s = partition.shards[partition.shards.size() / 2];
      RecordBuffer staged;
      const RecordSpan lane = staged.load(span, s.nnz_begin, s.nnz_end);
      expect_records_match_generic(
          lane, decode_records(lane), s.nnz_begin, s.nnz_end, f, 64,
          what + " staged shard");
    }
  }
}

std::string record_case_name(const ::testing::TestParamInfo<std::size_t>& p) {
  return kRecordCases[p.param].name;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, RecordSource,
    ::testing::Range(std::size_t{0}, std::size(kRecordCases)),
    record_case_name);

// A high-bits segment edge inside a run: the output mode has extent 2 (one
// key bit), so the high bits hold the output bit and the top bit of the
// next field, which flips inside every output row. The kernel must carry
// the run's accumulator across the edge.
void expect_runs_straddling_segment_edges_match(std::vector<index_t> dims,
                                                unsigned key_bits,
                                                std::size_t record_bytes) {
  const CooTensor t = skewed_tensor(std::move(dims), 8000, 7);
  const PackedCopy copy = packed_copy_of(t, 0);
  const RecordSpan span = copy.span();
  ASSERT_EQ(copy.layout().key_bits(), key_bits);
  ASSERT_EQ(copy.layout().record_bytes(), record_bytes);
  const CooTensor decoded = decode_records(span);
  std::vector<FactorSet> factors;
  for (const std::size_t rank : {1u, 32u, 100u}) {
    Rng rng(rank);
    factors.emplace_back(t.dims(), rank, rng);
  }
  std::size_t straddling = 0;
  for (const HighBitsSegment& seg : copy.high_bits()) {
    if (seg.first == 0 ||
        decoded.indices(0)[seg.first - 1] != decoded.indices(0)[seg.first]) {
      continue;
    }
    ++straddling;
    for (const FactorSet& f : factors) {
      // A window around the edge, and a block starting right on it.
      const std::string at = std::to_string(seg.first) + " rank " +
                             std::to_string(f.rank());
      expect_records_match_generic(span, decoded, seg.first - 1,
                                   seg.first + 1, f, 1, "edge at " + at);
      expect_records_match_generic(span, decoded, seg.first,
                                   std::min(copy.nnz(), seg.first + 300), f,
                                   7, "from edge " + at);
    }
  }
  EXPECT_GT(straddling, 0u) << "no run crossed a high-bits segment edge";
  for (const FactorSet& f : factors) {
    expect_records_match_generic(
        span, decoded, 0, copy.nnz(), f, 333,
        "whole copy rank " + std::to_string(f.rank()));
  }
}

// Keys over 64 bits: the first high bit is the output mode's, the second
// the top of the next 13-bit field.
TEST(RecordSourceSegments, RunsStraddleHighBitsSegmentEdges) {
  expect_runs_straddling_segment_edges_match({2, 8192, 8192, 8192, 8192, 8192},
                                             66, 16);
}

// 35-bit keys in 8-byte records: the record keeps bits 0..31, the high
// bits are the output bit (34) and the top two of the 12-bit next field.
TEST(RecordSourceSegments, RunsStraddleLow32SegmentEdges) {
  expect_runs_straddling_segment_edges_match({2, 4096, 2048, 2048}, 35, 8);
}

// Keys over 128 bits: eight modes of 2^17 make a 136-bit key whose 72
// high bits fill one word and spill into the next, with the output field
// across that edge. Ranks stay small: each mode's factor has 2^17 rows.
TEST(RecordSourceSegments, HighBitsAcrossWordsDecodeInTheKernel) {
  const CooTensor t = skewed_tensor(std::vector<index_t>(8, 1u << 17), 6000,
                                    11);
  std::vector<FactorSet> factors;
  for (const std::size_t rank : {1u, 8u}) {
    Rng rng(rank);
    factors.emplace_back(t.dims(), rank, rng);
  }
  for (const std::size_t d : {std::size_t{0}, std::size_t{7}}) {
    const PackedCopy copy = packed_copy_of(t, d);
    const RecordSpan span = copy.span();
    ASSERT_EQ(copy.layout().key_bits(), 136u);
    const CooTensor decoded = decode_records(span);
    // The decode itself against the elements sorted by coordinates, so a
    // kernel that shares a decode error with it cannot pass.
    CooTensor want = t;
    want.sort_lexicographic(mode_major_order(t.num_modes(), d));
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      ASSERT_TRUE(std::ranges::equal(decoded.indices(m), want.indices(m)))
          << "mode " << d << " copy decodes mode " << m << " wrongly";
    }
    for (const FactorSet& f : factors) {
      const std::string what =
          "mode " + std::to_string(d) + " rank " + std::to_string(f.rank());
      expect_records_match_generic(span, decoded, 0, copy.nnz(), f, 97,
                                   what + " whole copy");
      expect_records_match_generic(span, decoded, copy.nnz() / 3,
                                   copy.nnz() / 2, f, 50, what + " middle");
    }
  }
}

}  // namespace
}  // namespace amped
