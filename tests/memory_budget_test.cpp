// The out-of-core acceptance property: a `--memory-budget`-constrained
// run spills AmpedTensor copies to disk, streams shards back during
// MTTKRP, keeps tracked host allocation under the budget — and produces
// bit-identical results to the fully resident path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "core/cpd.hpp"
#include "core/mttkrp.hpp"
#include "io/mapped_tensor.hpp"
#include "io/memory_budget.hpp"
#include "io/snapshot.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "util/cli.hpp"

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

// Sets the global budget limit for one test and restores "unlimited"
// afterwards, so suites stay order-independent.
class BudgetGuard {
 public:
  explicit BudgetGuard(std::uint64_t limit) {
    auto& b = io::HostMemoryBudget::global();
    b.set_limit(limit);
    b.reset_peak();
  }
  ~BudgetGuard() { io::HostMemoryBudget::global().set_limit(0); }
};

void expect_matrices_identical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           a.rows() * a.cols() * sizeof(value_t)));
}

TEST(MemoryBudgetTest, ParseByteSize) {
  EXPECT_EQ(io::parse_byte_size("1024"), 1024u);
  EXPECT_EQ(io::parse_byte_size("64K"), 64u << 10);
  EXPECT_EQ(io::parse_byte_size("512M"), 512ull << 20);
  EXPECT_EQ(io::parse_byte_size("2G"), 2ull << 30);
  EXPECT_EQ(io::parse_byte_size("1T"), 1ull << 40);
  EXPECT_EQ(io::parse_byte_size("2GiB"), 2ull << 30);
  EXPECT_EQ(io::parse_byte_size("100KB"), 100ull << 10);
  EXPECT_EQ(io::parse_byte_size("7B"), 7u);
  EXPECT_EQ(io::parse_byte_size("0"), 0u);
  EXPECT_THROW(io::parse_byte_size(""), std::runtime_error);
  EXPECT_THROW(io::parse_byte_size("huge"), std::runtime_error);
  EXPECT_THROW(io::parse_byte_size("12X"), std::runtime_error);
  EXPECT_THROW(io::parse_byte_size("12Mx"), std::runtime_error);
  EXPECT_THROW(io::parse_byte_size("-512M"), std::runtime_error);
  EXPECT_THROW(io::parse_byte_size("20000000000T"), std::runtime_error);
}

// Sets AMPED_MEMORY_BUDGET for one test and restores the previous value
// however the test exits.
class ScopedBudgetEnv {
 public:
  explicit ScopedBudgetEnv(const char* value) {
    if (const char* old = std::getenv("AMPED_MEMORY_BUDGET")) saved_ = old;
    if (value != nullptr) {
      ::setenv("AMPED_MEMORY_BUDGET", value, 1);
    } else {
      ::unsetenv("AMPED_MEMORY_BUDGET");
    }
  }
  ~ScopedBudgetEnv() {
    if (saved_) {
      ::setenv("AMPED_MEMORY_BUDGET", saved_->c_str(), 1);
    } else {
      ::unsetenv("AMPED_MEMORY_BUDGET");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(MemoryBudgetTest, BudgetEnvParsesSizes) {
  {
    ScopedBudgetEnv env(nullptr);
    EXPECT_EQ(io::memory_budget_from_env(), 0u);
  }
  {
    ScopedBudgetEnv env("");
    EXPECT_EQ(io::memory_budget_from_env(), 0u);
  }
  ScopedBudgetEnv env("64K");
  EXPECT_EQ(io::memory_budget_from_env(), 64u << 10);
}

class InvalidBudgetEnv : public ::testing::TestWithParam<const char*> {};

TEST_P(InvalidBudgetEnv, RejectedNamingVariableAndValue) {
  ScopedBudgetEnv env(GetParam());
  try {
    (void)io::memory_budget_from_env();
    FAIL() << "AMPED_MEMORY_BUDGET=" << GetParam() << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("AMPED_MEMORY_BUDGET"), std::string::npos) << what;
    EXPECT_NE(what.find(std::string("\"") + GetParam() + "\""),
              std::string::npos)
        << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spellings, InvalidBudgetEnv, ::testing::Values("abc", "-1", "12Q"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      const std::string v = param.param;
      if (v == "abc") return std::string("letters");
      if (v == "-1") return std::string("negative");
      return std::string("bad_suffix");
    });

TEST(MemoryBudgetTest, FormatBytes) {
  EXPECT_EQ(io::format_bytes(512), "512 B");
  EXPECT_EQ(io::format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(io::format_bytes(3ull << 30), "3.0 GiB");
}

TEST(MemoryBudgetTest, AccountingTracksUseAndPeak) {
  BudgetGuard guard(1000);
  auto& b = io::HostMemoryBudget::global();
  EXPECT_EQ(b.limit(), 1000u);
  const auto base = b.in_use();
  {
    io::BudgetReservation r1(b, 400, "r1");
    EXPECT_EQ(b.in_use(), base + 400);
    {
      io::BudgetReservation r2(b, 500, "r2");
      EXPECT_EQ(b.in_use(), base + 900);
      EXPECT_THROW(io::BudgetReservation(b, 200, "r3"),
                   std::runtime_error);
    }
    EXPECT_EQ(b.in_use(), base + 400);
  }
  EXPECT_EQ(b.in_use(), base);
  EXPECT_GE(b.peak(), base + 900);
  EXPECT_EQ(b.remaining(), 1000 - base);
}

TEST(MemoryBudgetTest, ReservationMovesWithoutDoubleRelease) {
  BudgetGuard guard(1000);
  auto& b = io::HostMemoryBudget::global();
  const auto base = b.in_use();
  io::BudgetReservation outer;
  {
    io::BudgetReservation inner(b, 300, "inner");
    outer = std::move(inner);
  }
  EXPECT_EQ(b.in_use(), base + 300);
  outer.reset();
  EXPECT_EQ(b.in_use(), base);
  outer.reset();  // idempotent
  EXPECT_EQ(b.in_use(), base);
}

TEST(MemoryBudgetTest, MemoryBudgetFlagSetsGlobalLimit) {
  const char* argv[] = {"prog", "--memory-budget", "3M"};
  apply_common_flags(CliArgs(3, argv));
  EXPECT_EQ(io::HostMemoryBudget::global().limit(), 3ull << 20);
  io::HostMemoryBudget::global().set_limit(0);
}

TEST(MemoryBudgetTest, ForcedSpillBuildStreamsBitIdentically) {
  const auto input = make_tensor();
  AmpedBuildOptions resident_opt;
  resident_opt.storage = BuildStorage::kResident;
  AmpedBuildOptions spill_opt;
  spill_opt.storage = BuildStorage::kSpilled;

  PreprocessStats spill_stats;
  const auto resident = AmpedTensor::build(input, resident_opt);
  const auto spilled = AmpedTensor::build(input, spill_opt, &spill_stats);
  EXPECT_FALSE(resident.spilled());
  EXPECT_TRUE(spilled.spilled());
  EXPECT_TRUE(spill_stats.spilled);
  EXPECT_EQ(resident.total_bytes(), spilled.total_bytes());
  EXPECT_EQ(resident.values_norm_sq(), spilled.values_norm_sq());
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(resident.mode_copy(d).partition.shards.size(),
              spilled.mode_copy(d).partition.shards.size());
  }

  // Every streaming flavour: sequential static, pipelined static, and
  // the dynamic queue must all read the same elements from disk.
  struct Config {
    SchedulingPolicy policy;
    bool pipelined;
  };
  const Config configs[] = {
      {SchedulingPolicy::kStaticGreedy, false},
      {SchedulingPolicy::kStaticGreedy, true},
      {SchedulingPolicy::kContiguous, false},
      {SchedulingPolicy::kDynamicQueue, false},
  };
  Rng rng(5);
  const FactorSet factors(input.dims(), 16, rng);
  for (const auto& config : configs) {
    MttkrpOptions options;
    options.policy = config.policy;
    options.pipelined_streaming = config.pipelined;
    auto p_resident = sim::make_default_platform(4);
    auto p_spilled = sim::make_default_platform(4);
    std::vector<DenseMatrix> out_resident, out_spilled;
    const auto report_resident = mttkrp_all_modes(
        p_resident, resident, factors, out_resident, options);
    const auto report_spilled = mttkrp_all_modes(
        p_spilled, spilled, factors, out_spilled, options);
    ASSERT_EQ(out_resident.size(), out_spilled.size());
    for (std::size_t d = 0; d < out_resident.size(); ++d) {
      expect_matrices_identical(out_resident[d], out_spilled[d]);
    }
    // Identical elements in identical order also means identical
    // simulated time, to the last bit.
    EXPECT_EQ(report_resident.total_seconds, report_spilled.total_seconds)
        << to_string(config.policy)
        << (config.pipelined ? "+pipelined" : "");
  }
}

TEST(MemoryBudgetTest, AutoBudgetedCpdIsBitIdenticalAndUnderBudget) {
  const auto input = make_tensor();
  const std::uint64_t copy_bytes = input.storage_bytes();

  // Resident reference run, unconstrained. Scoped so the resident
  // tensor's budget charge is released before the constrained phase.
  CpdOptions cpd;
  cpd.rank = 8;
  cpd.max_iterations = 5;
  cpd.tolerance = 0.0;  // fixed iteration count on both sides
  AmpedBuildOptions build_opt;
  const auto ref = [&] {
    const auto resident = AmpedTensor::build(input, build_opt);
    EXPECT_FALSE(resident.spilled());
    auto p_resident = sim::make_default_platform(4);
    return cp_als(p_resident, resident, cpd);
  }();

  // Budget below the 3-copy footprint but above one copy: the kAuto
  // build must spill, and every tracked allocation (one copy under
  // construction, stream buffers) must stay under the limit.
  const std::uint64_t limit = copy_bytes + copy_bytes / 2;
  ASSERT_LT(limit, 3 * copy_bytes);
  BudgetGuard guard(limit);
  auto& budget = io::HostMemoryBudget::global();

  PreprocessStats stats;
  const auto spilled = AmpedTensor::build(input, build_opt, &stats);
  EXPECT_TRUE(stats.spilled);
  ASSERT_TRUE(spilled.spilled());
  auto p_spilled = sim::make_default_platform(4);
  const auto constrained = cp_als(p_spilled, spilled, cpd);

  EXPECT_LE(budget.peak(), limit);
  EXPECT_GT(budget.peak(), 0u);

  // Bit-identical factors, weights, and fit trajectory.
  ASSERT_EQ(ref.iterations, constrained.iterations);
  EXPECT_EQ(ref.fit, constrained.fit);
  ASSERT_EQ(ref.lambda.size(), constrained.lambda.size());
  for (std::size_t c = 0; c < ref.lambda.size(); ++c) {
    EXPECT_EQ(ref.lambda[c], constrained.lambda[c]);
  }
  for (std::size_t d = 0; d < 3; ++d) {
    expect_matrices_identical(ref.factors.factor(d),
                              constrained.factors.factor(d));
  }
}

TEST(MemoryBudgetTest, BudgetSmallerThanOneCopyRejectsBuild) {
  const auto input = make_tensor();
  BudgetGuard guard(input.storage_bytes() / 2);
  EXPECT_THROW(AmpedTensor::build(input, AmpedBuildOptions{}),
               std::runtime_error);
}

TEST(MemoryBudgetTest, SpillFilesAreRemovedWithTheTensor) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() /
                   ("amped_spill_cleanup_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  {
    AmpedBuildOptions opt;
    opt.storage = BuildStorage::kSpilled;
    opt.spill_dir = dir.string();
    const auto t = AmpedTensor::build(make_tensor(), opt);
    EXPECT_TRUE(t.spilled());
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator{}), 3);
  }
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(MemoryBudgetTest, MappedInputBuildMatchesOwned) {
  namespace fs = std::filesystem;
  const auto input = make_tensor();
  const auto path =
      (fs::temp_directory_path() /
       ("amped_budget_mapped_" + std::to_string(::getpid()) + ".amptns"))
          .string();
  io::write_snapshot_file(input, path);
  io::MappedCooTensor mapped(path);

  const auto from_owned = AmpedTensor::build(input, AmpedBuildOptions{});
  const auto from_mapped = AmpedTensor::build(mapped, AmpedBuildOptions{});
  std::remove(path.c_str());

  ASSERT_EQ(from_owned.num_modes(), from_mapped.num_modes());
  EXPECT_EQ(from_owned.values_norm_sq(), from_mapped.values_norm_sq());
  for (std::size_t d = 0; d < from_owned.num_modes(); ++d) {
    const CooTensor a = decode_copy(from_owned.mode_copy(d));
    const CooTensor b = decode_copy(from_mapped.mode_copy(d));
    ASSERT_EQ(a.nnz(), b.nnz());
    for (std::size_t m = 0; m < a.num_modes(); ++m) {
      ASSERT_EQ(0, std::memcmp(a.indices(m).data(), b.indices(m).data(),
                               a.nnz() * sizeof(index_t)));
    }
    ASSERT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                             a.nnz() * sizeof(value_t)));
  }
}

}  // namespace
}  // namespace amped
