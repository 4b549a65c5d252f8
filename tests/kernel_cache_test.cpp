// Tile-program dispatch (core/kernel_cache): bit-identity against the
// single-pass generic kernel across the full shape space, cache key and
// find-or-create semantics, and thread-safety of the lock-free lookup
// path (the concurrency tests run in the TSan CI lane).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
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

}  // namespace
}  // namespace amped
