#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "tensor/generator.hpp"
#include "tensor/packed_copy.hpp"
#include "util/stats.hpp"

namespace amped {
namespace {

CooTensor sorted_tensor(index_t dim0, nnz_t nnz, double zipf,
                        std::uint64_t seed) {
  GeneratorOptions opt;
  opt.dims = {dim0, 64, 64};
  opt.nnz = nnz;
  opt.zipf_exponents = {zipf, 0.0, 0.0};
  opt.seed = seed;
  auto t = generate_random(opt);
  t.sort_by_mode(0);
  return t;
}

TEST(PartitionTest, ShardsCoverAllNonzerosExactlyOnce) {
  auto t = sorted_tensor(1000, 5000, 0.0, 1);
  auto part = build_mode_partition(t, 0, 16);
  EXPECT_EQ(part.shards.size(), 16u);
  EXPECT_EQ(part.total_nnz(), t.nnz());
  nnz_t cursor = 0;
  for (const auto& s : part.shards) {
    EXPECT_EQ(s.nnz_begin, cursor);
    cursor = s.nnz_end;
  }
  EXPECT_EQ(cursor, t.nnz());
}

TEST(PartitionTest, ShardIndexRangesAreDisjointAndCoverDim) {
  auto t = sorted_tensor(777, 3000, 0.5, 2);
  auto part = build_mode_partition(t, 0, 10);
  index_t cursor = 0;
  for (const auto& s : part.shards) {
    EXPECT_EQ(s.index_begin, cursor);
    EXPECT_GT(s.index_end, s.index_begin);
    cursor = s.index_end;
  }
  EXPECT_EQ(cursor, 777u);
}

TEST(PartitionTest, ElementsLandInTheirIndexRange) {
  auto t = sorted_tensor(500, 4000, 0.9, 3);
  auto part = build_mode_partition(t, 0, 8);
  auto idx = t.indices(0);
  for (const auto& s : part.shards) {
    for (nnz_t n = s.nnz_begin; n < s.nnz_end; ++n) {
      EXPECT_GE(idx[n], s.index_begin);
      EXPECT_LT(idx[n], s.index_end);
    }
  }
}

TEST(PartitionTest, ShardCountClampedToDim) {
  auto t = sorted_tensor(5, 100, 0.0, 4);
  auto part = build_mode_partition(t, 0, 64);
  EXPECT_EQ(part.shards.size(), 5u);  // one index per shard at most
}

TEST(PartitionTest, AssignmentCoversEveryShardOnce) {
  auto t = sorted_tensor(1000, 8000, 0.8, 5);
  auto part = build_mode_partition(t, 0, 32);
  for (auto policy :
       {SchedulingPolicy::kStaticGreedy, SchedulingPolicy::kDynamicQueue,
        SchedulingPolicy::kContiguous}) {
    auto a = assign_shards(part, 4, policy);
    ASSERT_EQ(a.per_gpu.size(), 4u) << to_string(policy);
    std::set<std::size_t> seen;
    for (const auto& list : a.per_gpu) {
      for (std::size_t id : list) {
        EXPECT_TRUE(seen.insert(id).second) << "duplicate shard " << id;
      }
    }
    EXPECT_EQ(seen.size(), part.shards.size()) << to_string(policy);
  }
}

TEST(PartitionTest, GreedyBalancesSkewedShards) {
  // Zipf-heavy mode: shard nnz varies a lot; LPT must still balance GPUs
  // to within a few percent while contiguous assignment does far worse.
  auto t = sorted_tensor(4096, 100000, 1.1, 6);
  auto part = build_mode_partition(t, 0, 96);

  auto greedy = assign_shards(part, 4, SchedulingPolicy::kStaticGreedy);
  auto naive = assign_shards(part, 4, SchedulingPolicy::kContiguous);

  auto to_double = [](const std::vector<nnz_t>& v) {
    std::vector<double> d(v.begin(), v.end());
    return d;
  };
  const double greedy_imb =
      imbalance_factor(to_double(greedy.nnz_per_gpu(part)));
  const double naive_imb =
      imbalance_factor(to_double(naive.nnz_per_gpu(part)));
  EXPECT_LT(greedy_imb, 1.10);
  EXPECT_GT(naive_imb, greedy_imb);
}

TEST(PartitionTest, GreedyExecutionOrderIsIndexSorted) {
  auto t = sorted_tensor(512, 5000, 0.7, 7);
  auto part = build_mode_partition(t, 0, 24);
  auto a = assign_shards(part, 3, SchedulingPolicy::kStaticGreedy);
  for (const auto& list : a.per_gpu) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  }
}

TEST(PartitionTest, SingleGpuGetsEverything) {
  auto t = sorted_tensor(100, 1000, 0.0, 8);
  auto part = build_mode_partition(t, 0, 16);
  auto a = assign_shards(part, 1, SchedulingPolicy::kStaticGreedy);
  EXPECT_EQ(a.per_gpu[0].size(), part.shards.size());
  EXPECT_EQ(a.nnz_per_gpu(part)[0], t.nnz());
}

TEST(PartitionTest, SplitIspsEqualSized) {
  Shard s{.index_begin = 0, .index_end = 10, .nnz_begin = 100,
          .nnz_end = 1125};
  auto isps = split_isps(s, 256);
  ASSERT_EQ(isps.size(), 5u);  // 1025 elements -> 4 x 256 + 1
  for (std::size_t i = 0; i + 1 < isps.size(); ++i) {
    EXPECT_EQ(isps[i].second - isps[i].first, 256u);
  }
  EXPECT_EQ(isps.back().second - isps.back().first, 1u);
  EXPECT_EQ(isps.front().first, 0u);
  EXPECT_EQ(isps.back().second, s.nnz());
}

TEST(PartitionTest, SplitIspsEmptyShard) {
  Shard s{.index_begin = 0, .index_end = 1, .nnz_begin = 5, .nnz_end = 5};
  EXPECT_TRUE(split_isps(s, 64).empty());
}

// ---------------------------------------------------------------------------
// The partition searches for each shard edge; a pass over every record
// must give the same ranges.

// The output index of every record of `sorted`, in record order: one
// scan of the whole copy.
std::vector<index_t> scan_output_indices(const RecordSpan& sorted) {
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(sorted.count));
  for_each_output_index(sorted, 0, sorted.count,
                        [&](nnz_t, index_t index) { out.push_back(index); });
  return out;
}

// Expects `part` to cut [0, dim) into min(num_shards, dim) contiguous
// index ranges, each holding exactly the records whose scanned output
// index (`indices`, sorted) falls in it.
void expect_partition_like_scan(const ModePartition& part,
                                const std::vector<index_t>& indices,
                                index_t dim, std::size_t num_shards,
                                const std::string& what) {
  ASSERT_TRUE(std::is_sorted(indices.begin(), indices.end())) << what;
  ASSERT_TRUE(indices.empty() || indices.back() < dim) << what;
  ASSERT_EQ(part.shards.size(), std::min<std::size_t>(num_shards, dim))
      << what;
  index_t cursor = 0;
  nnz_t pos = 0;
  for (std::size_t j = 0; j < part.shards.size(); ++j) {
    const Shard& s = part.shards[j];
    const std::string at = what + ", shard " + std::to_string(j);
    EXPECT_EQ(s.index_begin, cursor) << at;
    EXPECT_GT(s.index_end, s.index_begin) << at;
    EXPECT_EQ(s.nnz_begin, pos) << at;
    while (pos < indices.size() && indices[pos] < s.index_end) ++pos;
    EXPECT_EQ(s.nnz_end, pos) << at;
    cursor = s.index_end;
  }
  EXPECT_EQ(cursor, dim) << what;
  EXPECT_EQ(pos, indices.size()) << what;
}

struct RecordKindCase {
  const char* name;
  std::vector<index_t> dims;
  std::size_t record_bytes;
  bool segmented;
};

// One case per record kind, by the width of the mode-major key.
const RecordKindCase kRecordKinds[] = {
    {"8B_22bit", {1000, 64, 64}, 8, false},
    {"8B_table_38bit", {9600, 3600, 3600}, 8, true},
    {"16B_44bit", {1u << 20, 1u << 12, 1u << 12}, 16, false},
    {"16B_table_66bit", {1u << 22, 1u << 22, 1u << 22}, 16, true},
    {"16B_table_132bit", std::vector<index_t>(6, 1u << 22), 16, true},
};

// Partitions every mode copy of `t` at several shard counts, from the
// records and from the decoded COO copy, against the scan.
void expect_every_mode_like_scan(const CooTensor& t,
                                 const RecordKindCase& kind,
                                 const std::string& what) {
  std::vector<std::span<const index_t>> cols;
  for (std::size_t m = 0; m < t.num_modes(); ++m) cols.push_back(t.indices(m));
  for (std::size_t d = 0; d < t.num_modes(); ++d) {
    PackedCopy copy;
    copy.assign_sorted(t.dims(), cols, t.values(), d);
    ASSERT_EQ(copy.layout().record_bytes(), kind.record_bytes) << what;
    ASSERT_EQ(copy.layout().segmented(), kind.segmented) << what;
    const CooTensor decoded = decode_records(copy.span());
    const auto indices = scan_output_indices(copy.span());
    for (std::size_t shards : {1, 3, 7, 96, 1000}) {
      const std::string at = what + ", mode " + std::to_string(d) + ", " +
                             std::to_string(shards) + " shards";
      const auto from_records = build_mode_partition(copy.span(), shards);
      EXPECT_EQ(from_records.mode, d) << at;
      expect_partition_like_scan(from_records, indices, t.dim(d), shards, at);
      const auto from_coo = build_mode_partition(decoded, d, shards);
      ASSERT_EQ(from_coo.shards.size(), from_records.shards.size()) << at;
      for (std::size_t j = 0; j < from_coo.shards.size(); ++j) {
        EXPECT_EQ(from_coo.shards[j].nnz_begin,
                  from_records.shards[j].nnz_begin) << at;
        EXPECT_EQ(from_coo.shards[j].nnz_end, from_records.shards[j].nnz_end)
            << at;
      }
    }
  }
}

CooTensor generated(const std::vector<index_t>& dims, nnz_t nnz, double zipf,
                    std::uint64_t seed) {
  GeneratorOptions opt;
  opt.dims = dims;
  opt.nnz = nnz;
  opt.zipf_exponents.assign(dims.size(), zipf);
  opt.seed = seed;
  return generate_random(opt);
}

class SearchPartition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SearchPartition, EqualsAScanOfEveryRecord) {
  const RecordKindCase& kind = kRecordKinds[GetParam()];
  const std::uint64_t seed = 100 + GetParam();
  // Spread, skewed (most shards of a hot mode near empty), and sparse
  // (far more shards than nonzeros, so most are empty).
  expect_every_mode_like_scan(generated(kind.dims, 20000, 0.3, seed), kind,
                              "spread");
  expect_every_mode_like_scan(generated(kind.dims, 20000, 1.6, seed + 10),
                              kind, "skewed");
  expect_every_mode_like_scan(generated(kind.dims, 40, 0.0, seed + 20), kind,
                              "sparse");
}

TEST_P(SearchPartition, EmptyAndSingleElementCopies) {
  const RecordKindCase& kind = kRecordKinds[GetParam()];
  expect_every_mode_like_scan(CooTensor(kind.dims), kind, "empty");
  for (const index_t at : {index_t{0}, index_t{1}}) {
    CooTensor one(kind.dims);
    std::vector<index_t> coords(kind.dims.size());
    for (std::size_t m = 0; m < coords.size(); ++m) {
      coords[m] = at == 0 ? 0 : kind.dims[m] - 1;
    }
    one.push_back(coords, 1.5f);
    expect_every_mode_like_scan(one, kind,
                                at == 0 ? "one element at 0"
                                        : "one element at the last index");
  }
}

INSTANTIATE_TEST_SUITE_P(
    RecordKinds, SearchPartition,
    ::testing::Range(std::size_t{0}, std::size(kRecordKinds)),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return std::string(kRecordKinds[param.param].name);
    });

// Fewer indices than shards: one shard per index, each holding exactly
// that index's records, in every record kind's table-free and segmented
// forms.
TEST(SearchPartitionDims, DimBelowShardCount) {
  const RecordKindCase kinds[] = {
      {"8B", {5, 64, 64}, 8, false},
      {"8B_table", {5, 1u << 17, 1u << 16}, 8, true},
      {"16B", {5, 1u << 20, 1u << 20}, 16, false},
      {"16B_table", {5, 1u << 31, 1u << 31}, 16, true},
  };
  for (const auto& kind : kinds) {
    // Mode 0 (dim 5) in every copy: as the leading field and below others.
    CooTensor t = generated(kind.dims, 3000, 0.9, 7);
    std::vector<std::span<const index_t>> cols;
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      cols.push_back(t.indices(m));
    }
    PackedCopy copy;
    copy.assign_sorted(t.dims(), cols, t.values(), 0);
    ASSERT_EQ(copy.layout().record_bytes(), kind.record_bytes) << kind.name;
    ASSERT_EQ(copy.layout().segmented(), kind.segmented) << kind.name;
    const auto part = build_mode_partition(copy.span(), 64);
    EXPECT_EQ(part.shards.size(), 5u) << kind.name;
    expect_partition_like_scan(part, scan_output_indices(copy.span()), 5, 64,
                               kind.name);
  }
}

TEST(PartitionTest, PolicyNames) {
  EXPECT_EQ(to_string(SchedulingPolicy::kStaticGreedy), "static-greedy");
  EXPECT_EQ(to_string(SchedulingPolicy::kDynamicQueue), "dynamic-queue");
  EXPECT_EQ(to_string(SchedulingPolicy::kContiguous), "contiguous");
}

}  // namespace
}  // namespace amped
