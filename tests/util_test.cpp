#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace amped {
namespace {

TEST(SplitMix64Test, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x = a.next();
  EXPECT_EQ(x, b.next());
  EXPECT_NE(x, c.next());
}

TEST(RngTest, DeterministicStreams) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(7);
  Rng split = a.split();
  // The split stream must differ from the parent's continued stream.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != split.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 8.0, n / 8.0 * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, UniformWhenExponentZero) {
  Rng rng(3);
  ZipfSampler z(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 500);
}

TEST(ZipfTest, SamplesStayInDomain) {
  Rng rng(5);
  for (double s : {0.5, 1.0, 1.5}) {
    ZipfSampler z(1000, s);
    for (int i = 0; i < 2000; ++i) EXPECT_LT(z(rng), 1000u);
  }
}

TEST(ZipfTest, RankZeroIsHottest) {
  Rng rng(9);
  ZipfSampler z(100, 1.1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200000; ++i) ++counts[z(rng)];
  // Rank 0 strictly dominates mid and tail ranks.
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], counts[90] * 5);
}

TEST(ZipfTest, HeavierExponentMoreSkew) {
  Rng rng(21);
  ZipfSampler light(500, 0.5), heavy(500, 1.5);
  int light_top = 0, heavy_top = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (light(rng) == 0) ++light_top;
    if (heavy(rng) == 0) ++heavy_top;
  }
  EXPECT_GT(heavy_top, light_top * 3);
}

TEST(ZipfTest, SingletonDomain) {
  Rng rng(1);
  ZipfSampler z(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z(rng), 0u);
}

TEST(StatsTest, MeanAndGeomean) {
  std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, MinMaxStddev) {
  std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(StatsTest, OverheadFraction) {
  std::vector<double> balanced{1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(overhead_fraction(balanced), 0.0);
  std::vector<double> skewed{2.0, 1.0, 1.0};
  EXPECT_NEAR(overhead_fraction(skewed), 0.25, 1e-12);
}

TEST(StatsTest, ImbalanceFactor) {
  std::vector<double> xs{2.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(imbalance_factor(xs), 1.5);
}

TEST(StatsTest, GiniBounds) {
  std::vector<double> equal{5.0, 5.0, 5.0, 5.0};
  EXPECT_NEAR(gini(equal), 0.0, 1e-12);
  std::vector<double> unequal{0.0, 0.0, 0.0, 100.0};
  EXPECT_GT(gini(unequal), 0.7);
}

TEST(StatsTest, Histogram) {
  std::vector<double> xs{0.1, 0.2, 0.6, 0.9, 1.5};
  auto h = histogram(xs, 0.0, 1.0, 2);
  EXPECT_EQ(h[0], 2u);  // 0.1, 0.2
  EXPECT_EQ(h[1], 2u);  // 0.6, 0.9; 1.5 out of range
}

TEST(CliTest, ParsesForms) {
  // Note: a bare boolean flag must be followed by another flag or the end
  // of the line — `--flag value` is always parsed as key/value.
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4",
                        "pos1", "--flag",    "--gamma=x"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get("gamma", ""), "x");
  EXPECT_EQ(args.get("missing", "d"), "d");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(CliTest, DoubleAndBoolFallbacks) {
  const char* argv[] = {"prog", "--x=2.5"};
  CliArgs args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double("y", 1.25), 1.25);
  EXPECT_FALSE(args.get_bool("z", false));
}

TEST(CliTest, UnknownFlagsAreTheOnesNeitherListedNorCommon) {
  const char* argv[] = {"prog",      "--rank=4", "--threads", "2",
                        "--policy",  "greedy",   "--bogus-flag", "3",
                        "--pipelined"};
  CliArgs args(9, argv);
  // --threads is read by apply_common_flags; --policy and --pipelined only
  // by its MTTKRP overload.
  EXPECT_EQ(args.unknown_flags({"rank"}),
            (std::vector<std::string>{"bogus-flag", "pipelined", "policy"}));
  EXPECT_EQ(args.unknown_flags({"rank"}, CommonFlags::kWithMttkrp),
            std::vector<std::string>{"bogus-flag"});
  EXPECT_TRUE(args.unknown_flags({"rank", "bogus-flag"},
                                 CommonFlags::kWithMttkrp)
                  .empty());
}

TEST(CliTest, RequireKnownFlagsExitsTwoNamingTheFlag) {
  const char* argv[] = {"prog", "--iters", "2", "--bogus-flag", "3"};
  const CliArgs args(5, argv);
  EXPECT_EXIT(args.require_known_flags({"iters"}),
              ::testing::ExitedWithCode(2), "unknown flag --bogus-flag");
  // Listed and common flags pass.
  const char* ok_argv[] = {"prog", "--iters", "2", "--memory-budget", "2M"};
  CliArgs(5, ok_argv).require_known_flags({"iters"});
}

TEST(CliTest, HelpPrintsTheAcceptedFlagsAndExitsZero) {
  const char* argv[] = {"prog", "--help"};
  const CliArgs args(2, argv);
  // The list goes to stdout; the death test matches stderr, so the child
  // points stdout there first.
  EXPECT_EXIT(
      {
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        args.require_known_flags({"iters"}, CommonFlags::kWithMttkrp);
      },
      ::testing::ExitedWithCode(0),
      "prog reads --allgather, --backend, --faults, --iters, --log-level, "
      "--memory-budget, --pipelined, --policy, --threads");
}

TEST(ThreadPoolTest, ParallelForChunksCoverAllIndicesOnce) {
  ThreadPool pool(4);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{200}}) {
    std::vector<std::atomic<int>> hits(98);
    pool.parallel_for(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, chunk);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "chunk " << chunk;
  }
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace amped
