#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "core/amped_tensor.hpp"
#include "io/mapped_tensor.hpp"
#include "io/shard_stream.hpp"
#include "io/snapshot.hpp"
#include "tensor/generator.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

CooTensor make_tensor() {
  GeneratorOptions opt;
  opt.dims = {200, 150, 100};
  opt.nnz = 5000;
  opt.zipf_exponents = {0.6, 0.6, 0.6};
  opt.seed = 42;
  return generate_random(opt);
}

TEST(AmpedTensorTest, BuildsOneCopyPerMode) {
  auto input = make_tensor();
  auto t = AmpedTensor::build(input, AmpedBuildOptions{});
  EXPECT_EQ(t.num_modes(), 3u);
  EXPECT_EQ(t.nnz(), input.nnz());
  EXPECT_EQ(t.dims(), input.dims());
  for (std::size_t d = 0; d < 3; ++d) {
    const auto& copy = t.mode_copy(d);
    EXPECT_EQ(copy.partition.mode, d);
    const CooTensor elements = decode_copy(copy);
    auto idx = elements.indices(d);
    EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()))
        << "copy " << d << " not sorted by its output mode";
    EXPECT_EQ(copy.partition.total_nnz(), input.nnz());
  }
}

TEST(AmpedTensorTest, ShardCountFollowsOptions) {
  auto input = make_tensor();
  AmpedBuildOptions opt;
  opt.num_gpus = 4;
  opt.shards_per_gpu = 8;
  auto t = AmpedTensor::build(input, opt);
  EXPECT_EQ(t.mode_copy(0).partition.shards.size(), 32u);
}

TEST(AmpedTensorTest, ShardBytesMatchPayload) {
  auto input = make_tensor();
  auto t = AmpedTensor::build(input, AmpedBuildOptions{});
  const auto& part = t.mode_copy(1).partition;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < part.shards.size(); ++s) {
    EXPECT_EQ(t.shard_bytes(1, s),
              part.shards[s].nnz() * input.bytes_per_nnz());
    total += t.shard_bytes(1, s);
  }
  EXPECT_EQ(total, input.storage_bytes());
}

TEST(AmpedTensorTest, TotalBytesIsModesTimesCoo) {
  auto input = make_tensor();
  auto t = AmpedTensor::build(input, AmpedBuildOptions{});
  EXPECT_EQ(t.total_bytes(), 3 * input.storage_bytes());
}

// The Amazon 1/500 stand-in's shape (9.6K x 3.6K x 3.6K, 38-bit keys):
// every copy keeps 8-byte records and a high-bits table of at most 2^6
// segments, while pricing still charges COO bytes.
TEST(AmpedTensorTest, AmazonShapedCopiesTakeEightBytesAndATable) {
  GeneratorOptions opt;
  opt.dims = {9600, 3600, 3600};
  opt.nnz = 60000;
  opt.zipf_exponents = {0.8, 0.6, 0.6};
  opt.seed = 500;
  const CooTensor input = generate_random(opt);
  const auto t = AmpedTensor::build(input, AmpedBuildOptions{});
  for (std::size_t d = 0; d < 3; ++d) {
    const PackedCopy& copy = t.mode_copy(d).records;
    EXPECT_EQ(copy.layout().key_bits(), 38u);
    EXPECT_EQ(copy.bytes().size(), 8 * input.nnz()) << "mode " << d;
    EXPECT_GE(copy.high_bits().size(), 1u) << "mode " << d;
    EXPECT_LE(copy.high_bits().size(), 64u) << "mode " << d;
  }
  EXPECT_EQ(t.total_bytes(), 3 * input.storage_bytes());
}

TEST(AmpedTensorTest, PreprocessStatsPopulated) {
  auto input = make_tensor();
  PreprocessStats stats;
  auto t = AmpedTensor::build(input, AmpedBuildOptions{}, &stats);
  EXPECT_GT(stats.host_seconds, 0.0);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.bytes_built, t.total_bytes());
}

TEST(AmpedTensorTest, PreprocessModelScalesWithWork) {
  const double small = model_amped_preprocess_seconds(1'000'000, 3);
  const double bigger_nnz = model_amped_preprocess_seconds(10'000'000, 3);
  const double more_modes = model_amped_preprocess_seconds(1'000'000, 5);
  EXPECT_GT(bigger_nnz, 9.0 * small);   // superlinear (n log n)
  EXPECT_NEAR(more_modes, small * 5.0 / 3.0, small * 0.01);
  EXPECT_DOUBLE_EQ(model_amped_preprocess_seconds(0, 3), 0.0);
}

// Mode-d copy by an independent oracle: a stable comparison sort of the
// element positions under the mode-major key, then a gather.
CooTensor stable_sorted_copy(const CooTensor& t, std::size_t d) {
  const auto order = mode_major_order(t.num_modes(), d);
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
  CooTensor out = t;
  out.apply_permutation(perm);
  return out;
}


void expect_copies_identical(const CooTensor& a, const CooTensor& b,
                             const std::string& what) {
  ASSERT_EQ(a.dims(), b.dims()) << what;
  ASSERT_EQ(a.nnz(), b.nnz()) << what;
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    EXPECT_EQ(0, std::memcmp(a.indices(m).data(), b.indices(m).data(),
                             a.nnz() * sizeof(index_t)))
        << what << ": mode " << m;
  }
  EXPECT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                           a.nnz() * sizeof(value_t)))
      << what << ": values";
}

void expect_partitions_identical(const ModePartition& a,
                                 const ModePartition& b,
                                 const std::string& what) {
  EXPECT_EQ(a.mode, b.mode) << what;
  ASSERT_EQ(a.shards.size(), b.shards.size()) << what;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].index_begin, b.shards[s].index_begin) << what;
    EXPECT_EQ(a.shards[s].index_end, b.shards[s].index_end) << what;
    EXPECT_EQ(a.shards[s].nnz_begin, b.shards[s].nnz_begin) << what;
    EXPECT_EQ(a.shards[s].nnz_end, b.shards[s].nnz_end) << what;
  }
}

class BuildInputsAgree : public ::testing::TestWithParam<std::size_t> {};

// Resident, spilled, mmap-backed and degraded-to-resident builds write
// byte-identical copies (decoded from their records) and partitions, equal
// to a stable sort of the input, whatever the pool size; heavy duplicates
// make the tie order visible.
TEST_P(BuildInputsAgree, CopiesAndPartitionsAreByteIdentical) {
  namespace fs = std::filesystem;
  set_host_parallelism(GetParam());
  GeneratorOptions gen;
  gen.dims = {46, 24, 24};
  gen.nnz = 60000;
  gen.zipf_exponents = {0.15, 0.55, 0.55};
  gen.seed = 77;
  const CooTensor input = generate_random(gen);
  const auto dir = fs::temp_directory_path() /
                   ("amped_build_inputs_" + std::to_string(GetParam()) +
                    "_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "input.amptns").string();
  io::write_snapshot_file(input, path);
  {
    const io::MappedCooTensor mapped(path);
    AmpedBuildOptions resident;
    resident.storage = BuildStorage::kResident;
    AmpedBuildOptions spilled;
    spilled.storage = BuildStorage::kSpilled;
    spilled.spill_dir = dir.string();

    AmpedTensor degraded;
    {
      // Every spill fails validation: the build keeps each copy resident.
      fault::FaultScope scope("spill.verify", {.nth = 1, .times = 1u << 20});
      degraded = AmpedTensor::build(mapped, spilled);
    }
    const AmpedTensor builds[] = {
        AmpedTensor::build(input, resident),
        AmpedTensor::build(input, spilled),
        AmpedTensor::build(mapped, resident),
        AmpedTensor::build(mapped, spilled),
        std::move(degraded),
    };
    const char* const names[] = {"owned resident", "owned spilled",
                                 "mapped resident", "mapped spilled",
                                 "mapped degraded to resident"};
    const bool spill[] = {false, true, false, true, false};
    for (std::size_t d = 0; d < input.num_modes(); ++d) {
      const CooTensor want = stable_sorted_copy(input, d);
      const ModePartition want_partition = build_mode_partition(
          want, d, builds[0].mode_copy(d).partition.shards.size());
      for (std::size_t b = 0; b < std::size(builds); ++b) {
        const std::string what =
            std::string(names[b]) + " mode " + std::to_string(d);
        EXPECT_EQ(builds[b].mode_copy(d).spilled(), spill[b]) << what;
        expect_copies_identical(decode_copy(builds[b].mode_copy(d)), want,
                                what);
        expect_partitions_identical(builds[b].mode_copy(d).partition,
                                    want_partition, what);
        EXPECT_EQ(builds[b].values_norm_sq(), builds[0].values_norm_sq())
            << what;
      }
    }
  }
  set_host_parallelism(0);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, BuildInputsAgree,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(AmpedTensorTest, BuildReportsSortAndSpillWriteLayers) {
  namespace fs = std::filesystem;
  const auto input = make_tensor();
  PreprocessStats resident;
  AmpedTensor::build(input, AmpedBuildOptions{}, &resident);
  EXPECT_GT(resident.sort_seconds, 0.0);
  EXPECT_EQ(resident.spill_write_seconds, 0.0);

  const auto dir = fs::temp_directory_path() /
                   ("amped_build_layers_" + std::to_string(::getpid()));
  AmpedBuildOptions opt;
  opt.storage = BuildStorage::kSpilled;
  opt.spill_dir = dir.string();
  fs::create_directories(dir);
  PreprocessStats spilled;
  {
    const auto t = AmpedTensor::build(input, opt, &spilled);
    EXPECT_TRUE(t.spilled());
  }
  fs::remove_all(dir);
  EXPECT_GT(spilled.sort_seconds, 0.0);
  EXPECT_GT(spilled.spill_write_seconds, 0.0);
  EXPECT_LE(spilled.sort_seconds + spilled.spill_write_seconds,
            spilled.wall_seconds);
}

// The spilled build's post-sort passes run on the pool and its commits on
// another thread; the layers say where its time went.
TEST(AmpedTensorTest, BuildReportsPostSortAndCommitWaitLayers) {
  namespace fs = std::filesystem;
  const auto input = make_tensor();
  PreprocessStats resident;
  AmpedTensor::build(input, AmpedBuildOptions{}, &resident);
  EXPECT_EQ(resident.post_sort_seconds, 0.0);
  EXPECT_EQ(resident.spill_commit_wait_seconds, 0.0);

  const auto dir = fs::temp_directory_path() /
                   ("amped_build_post_sort_" + std::to_string(::getpid()));
  AmpedBuildOptions opt;
  opt.storage = BuildStorage::kSpilled;
  opt.spill_dir = dir.string();
  fs::create_directories(dir);
  PreprocessStats spilled;
  AmpedTensor::build(input, opt, &spilled);
  fs::remove_all(dir);
  EXPECT_GT(spilled.post_sort_seconds, 0.0);
  EXPECT_GE(spilled.spill_commit_wait_seconds, 0.0);
  EXPECT_LE(spilled.sort_seconds + spilled.post_sort_seconds +
                spilled.spill_write_seconds +
                spilled.spill_commit_wait_seconds,
            spilled.wall_seconds);
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class SpillFilesAgree : public ::testing::TestWithParam<std::size_t> {};

// Every spill file is byte for byte the file write_snapshot_file writes
// for the same sorted copy and run stats, at every record kind: the
// checksum computed beside the run-stats scan and the commit on another
// thread change nothing on disk.
TEST_P(SpillFilesAgree, SpillFilesMatchTheSerialWriter) {
  namespace fs = std::filesystem;
  set_host_parallelism(GetParam());
  const std::vector<index_t> shapes[] = {
      {200, 150, 100},                        // 8-byte records
      {9600, 3600, 3600},                     // 8 bytes plus a table
      {1u << 20, 1u << 12, 1u << 12},         // 16 bytes
      {1u << 22, 1u << 22, 1u << 22},         // 16 bytes plus a table
  };
  const auto dir = fs::temp_directory_path() /
                   ("amped_spill_files_" + std::to_string(GetParam()) +
                    "_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string reference_path = (dir / "reference.amptns").string();
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    GeneratorOptions gen;
    gen.dims = shapes[i];
    gen.nnz = 20000;
    gen.zipf_exponents = {0.9, 0.5, 0.5};
    gen.seed = 90 + i;
    const CooTensor input = generate_random(gen);
    AmpedBuildOptions opt;
    opt.storage = BuildStorage::kSpilled;
    opt.spill_dir = dir.string();
    const AmpedTensor spilled = AmpedTensor::build(input, opt);
    AmpedBuildOptions resident_opt;
    resident_opt.storage = BuildStorage::kResident;
    const AmpedTensor resident = AmpedTensor::build(input, resident_opt);
    EXPECT_EQ(spilled.values_norm_sq(), resident.values_norm_sq());
    std::vector<std::span<const index_t>> cols;
    for (std::size_t m = 0; m < input.num_modes(); ++m) {
      cols.push_back(input.indices(m));
    }
    for (std::size_t d = 0; d < input.num_modes(); ++d) {
      const std::string what =
          "shape " + std::to_string(i) + " mode " + std::to_string(d);
      const auto& copy = spilled.mode_copy(d);
      ASSERT_TRUE(copy.spilled()) << what;
      PackedCopy sorted;
      sorted.assign_sorted(input.dims(), cols, input.values(), d);
      // The run stats persisted are the resident copy's, shard by shard.
      const auto& part = resident.mode_copy(d).partition;
      const auto stats = copy.spill->shard_run_stats();
      ASSERT_EQ(stats.size(), part.shards.size()) << what;
      for (std::size_t j = 0; j < part.shards.size(); ++j) {
        const auto rs = compute_shard_run_stats(sorted.span(), part.shards[j]);
        EXPECT_EQ(stats[j].nnz_begin, part.shards[j].nnz_begin) << what;
        EXPECT_EQ(stats[j].nnz_end, part.shards[j].nnz_end) << what;
        EXPECT_EQ(stats[j].runs, rs.runs) << what;
        EXPECT_EQ(stats[j].max_run, rs.max_run) << what;
      }
      io::write_snapshot_file(sorted, reference_path, stats);
      EXPECT_EQ(file_bytes(copy.spill->path()), file_bytes(reference_path))
          << what;
    }
  }
  set_host_parallelism(0);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, SpillFilesAgree,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

}  // namespace
}  // namespace amped
