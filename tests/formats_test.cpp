#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "formats/blco.hpp"
#include "formats/csf.hpp"
#include "formats/hicoo.hpp"
#include "formats/sorting.hpp"
#include "tensor/generator.hpp"
#include "tensor/reference_mttkrp.hpp"

namespace amped::formats {
namespace {

CooTensor make_tensor(std::vector<index_t> dims, nnz_t nnz,
                      std::uint64_t seed, double skew = 0.4) {
  GeneratorOptions opt;
  opt.dims = std::move(dims);
  opt.zipf_exponents.assign(opt.dims.size(), skew);
  opt.nnz = nnz;
  opt.seed = seed;
  return generate_random(opt);
}

TEST(SortingTest, LexicographicPermutationSorts) {
  auto t = make_tensor({32, 32, 32}, 500, 1);
  std::vector<std::size_t> order{1, 2, 0};
  t.sort_lexicographic(order);
  for (nnz_t n = 1; n < t.nnz(); ++n) {
    bool ok = false;
    for (std::size_t m : order) {
      if (t.indices(m)[n] != t.indices(m)[n - 1]) {
        ok = t.indices(m)[n] > t.indices(m)[n - 1];
        break;
      }
      ok = true;  // equal prefix so far
    }
    EXPECT_TRUE(ok) << "element " << n << " out of order";
  }
}

TEST(SortingTest, ModeBitsCoverDims) {
  std::vector<index_t> dims{1, 2, 3, 1000, 1u << 20};
  auto bits = mode_bits(dims);
  for (std::size_t m = 0; m < dims.size(); ++m) {
    EXPECT_GE(1ull << bits[m], dims[m]);
    if (bits[m] > 1) {
      EXPECT_LT(1ull << (bits[m] - 1), dims[m]);
    }
  }
}

TEST(SortingTest, PackUnpackRoundTrip) {
  std::vector<index_t> dims{100, 50, 200};
  auto bits = mode_bits(dims);
  std::vector<std::size_t> order{2, 0, 1};
  std::array<index_t, 3> coords{42, 17, 199};
  const auto key = pack_coords(coords, bits, order);
  std::array<index_t, 3> back{};
  unpack_coords(key, bits, order, back);
  EXPECT_EQ(back, coords);
}

TEST(CsfTest, LevelSizesAndStorage) {
  auto t = make_tensor({16, 16, 16}, 300, 2);
  auto csf = CsfTensor::build(t, {0, 1, 2});
  auto sizes = csf.level_sizes();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_LE(sizes[0], 16u);                 // distinct roots
  EXPECT_LE(sizes[1], t.nnz());             // distinct (i,j) prefixes
  EXPECT_EQ(sizes[2], t.nnz());             // leaves
  EXPECT_GE(sizes[1], sizes[0]);
  EXPECT_GT(csf.storage_bytes(), 0u);
  EXPECT_LT(csf.storage_bytes(), 2 * t.storage_bytes() + 1000);
}

TEST(CsfTest, MttkrpRootMatchesReference) {
  for (std::size_t root = 0; root < 3; ++root) {
    auto t = make_tensor({20, 24, 28}, 800, 3 + root);
    std::vector<std::size_t> order{root};
    for (std::size_t m = 0; m < 3; ++m) {
      if (m != root) order.push_back(m);
    }
    auto csf = CsfTensor::build(t, order);
    Rng rng(9);
    FactorSet f(t.dims(), 8, rng);
    DenseMatrix out(t.dim(root), 8);
    csf.mttkrp_root(f, out);
    const auto ref = reference_mttkrp(t, f, root);
    EXPECT_LT(relative_max_diff(ref, out), 5e-4) << "root " << root;
  }
}

TEST(CsfTest, FourModeMttkrp) {
  auto t = make_tensor({10, 12, 14, 9}, 600, 7);
  auto csf = CsfTensor::build(t, {2, 0, 1, 3});
  Rng rng(11);
  FactorSet f(t.dims(), 4, rng);
  DenseMatrix out(t.dim(2), 4);
  std::vector<CsfTensor::SliceStats> stats;
  csf.mttkrp_root(f, out, &stats);
  const auto ref = reference_mttkrp(t, f, 2);
  EXPECT_LT(relative_max_diff(ref, out), 5e-4);

  // Stats: one entry per root slice; leaves sum to nnz.
  EXPECT_EQ(stats.size(), csf.level_sizes()[0]);
  nnz_t leaves = 0;
  for (const auto& s : stats) leaves += s.leaves;
  EXPECT_EQ(leaves, t.nnz());
}

TEST(CsfTest, TwoModeTensor) {
  auto t = make_tensor({30, 40}, 200, 13);
  auto csf = CsfTensor::build(t, {0, 1});
  Rng rng(14);
  FactorSet f(t.dims(), 6, rng);
  DenseMatrix out(t.dim(0), 6);
  csf.mttkrp_root(f, out);
  const auto ref = reference_mttkrp(t, f, 0);
  EXPECT_LT(relative_max_diff(ref, out), 5e-4);
}

TEST(HicooTest, CoordsRoundTrip) {
  auto t = make_tensor({300, 200, 100}, 2000, 15);
  auto h = HicooTensor::build(t, 5);  // 32-wide blocks
  EXPECT_EQ(h.nnz(), t.nnz());
  // Every original coordinate must appear exactly once (sum check).
  std::array<index_t, 3> c{};
  std::uint64_t sum_before = 0, sum_after = 0;
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    sum_before += t.indices(0)[n] + 7ull * t.indices(1)[n] +
                  13ull * t.indices(2)[n];
  }
  for (nnz_t n = 0; n < h.nnz(); ++n) {
    h.coords_of(n, c);
    sum_after += c[0] + 7ull * c[1] + 13ull * c[2];
  }
  EXPECT_EQ(sum_before, sum_after);
}

TEST(HicooTest, BlocksAreCoherent) {
  auto t = make_tensor({256, 256}, 3000, 16);
  auto h = HicooTensor::build(t, 6);
  nnz_t covered = 0;
  std::array<index_t, 2> c{};
  for (const auto& b : h.blocks()) {
    EXPECT_LT(b.begin, b.end);
    covered += b.nnz();
    for (nnz_t e = b.begin; e < b.end; ++e) {
      h.coords_of(e, c);
      EXPECT_EQ(c[0] >> 6, b.block_coords[0]);
      EXPECT_EQ(c[1] >> 6, b.block_coords[1]);
    }
  }
  EXPECT_EQ(covered, h.nnz());
}

TEST(HicooTest, CompressesDenseBlocks) {
  // Small index space -> dense blocks -> fewer bytes than COO.
  auto t = make_tensor({64, 64, 64}, 20000, 17);
  auto h = HicooTensor::build(t);
  EXPECT_LT(h.storage_bytes(), t.storage_bytes());
}

TEST(HicooTest, MttkrpMatchesReference) {
  auto t = make_tensor({100, 80, 60}, 3000, 18);
  auto h = HicooTensor::build(t);
  Rng rng(19);
  FactorSet f(t.dims(), 8, rng);
  for (std::size_t d = 0; d < 3; ++d) {
    DenseMatrix out(t.dim(d), 8);
    std::vector<HicooTensor::BlockExecStats> stats;
    h.mttkrp(f, d, out, &stats);
    const auto ref = reference_mttkrp(t, f, d);
    EXPECT_LT(relative_max_diff(ref, out), 5e-4) << "mode " << d;
    nnz_t total = 0;
    for (const auto& s : stats) {
      total += s.nnz;
      EXPECT_GE(s.output_runs, 1u);
      EXPECT_GE(s.max_multiplicity, s.max_run);
    }
    EXPECT_EQ(total, t.nnz());
  }
}

TEST(BlcoTest, CoordsRoundTrip64Bit) {
  auto t = make_tensor({1000, 500, 2000}, 1500, 20);
  auto b = BlcoTensor::build(t);
  EXPECT_EQ(b.nnz(), t.nnz());
  std::array<index_t, 3> c{};
  std::uint64_t sum_before = 0, sum_after = 0;
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    sum_before += t.indices(0)[n] + 3ull * t.indices(1)[n] +
                  11ull * t.indices(2)[n];
  }
  for (nnz_t n = 0; n < b.nnz(); ++n) {
    b.coords_of(n, c);
    sum_after += c[0] + 3ull * c[1] + 11ull * c[2];
  }
  EXPECT_EQ(sum_before, sum_after);
}

TEST(BlcoTest, WideTensorSplitsIntoHighBitBlocks) {
  // 5 modes x ~20 bits each = ~100 bits > 64: must use blocked keys.
  auto t = make_tensor({1u << 20, 1u << 20, 1u << 20, 1u << 12, 1u << 12},
                       4000, 21, 0.0);
  auto b = BlcoTensor::build(t);
  EXPECT_GT(b.blocks().size(), 1u);
  std::array<index_t, 5> c{};
  for (nnz_t n = 0; n < b.nnz(); n += 97) {
    b.coords_of(n, c);
    for (std::size_t m = 0; m < 5; ++m) EXPECT_LT(c[m], t.dim(m));
  }
}

TEST(BlcoTest, MaxBlockElemsRespected) {
  auto t = make_tensor({64, 64}, 5000, 22);
  auto b = BlcoTensor::build(t, 512);
  EXPECT_GE(b.blocks().size(), 5000u / 512);
  for (const auto& blk : b.blocks()) EXPECT_LE(blk.nnz(), 512u);
}

TEST(BlcoTest, VisitBlockMatchesCoordsOf) {
  auto t = make_tensor({128, 64, 32}, 800, 23);
  auto b = BlcoTensor::build(t, 256);
  std::array<index_t, 3> c{};
  for (const auto& blk : b.blocks()) {
    nnz_t e = blk.begin;
    b.visit_block(blk, [&](std::span<const index_t> coords, value_t v) {
      b.coords_of(e, c);
      for (std::size_t m = 0; m < 3; ++m) EXPECT_EQ(coords[m], c[m]);
      EXPECT_FLOAT_EQ(v, b.values()[e]);
      ++e;
    });
    EXPECT_EQ(e, blk.end);
  }
}

TEST(BlcoTest, StorageIs12BytesPerElementPlusHeaders) {
  auto t = make_tensor({256, 256, 256}, 1000, 24);
  auto b = BlcoTensor::build(t);
  EXPECT_GE(b.storage_bytes(), 12000u);
  EXPECT_LT(b.storage_bytes(), 12000u + 64 * b.blocks().size());
}

}  // namespace
}  // namespace amped::formats
