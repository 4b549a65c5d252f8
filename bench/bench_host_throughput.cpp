// Host execution engine throughput — wall-clock nnz/s of the paths that
// run *real* arithmetic on the host: the EC kernel, format-build sorting,
// end-to-end mttkrp_all_modes, and the ALS mode update. Unlike every other
// bench binary these numbers are measured time, not simulated time; they
// track the PR-over-PR speedup of the host engine (CI uploads the JSON as
// an artifact).
//
// The `*_reference` benchmarks are the pre-optimisation implementations
// kept verbatim (hash-map multiplicity tally in the element loop,
// comparison sort with per-comparison coordinate gathers), so one run
// reports the speedup ratio directly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "core/amped_tensor.hpp"
#include "core/ec_kernel.hpp"
#include "core/kernel_cache.hpp"
#include "core/mttkrp.hpp"
#include "exec/reference_loop.hpp"
#include "formats/sorting.hpp"
#include "io/mapped_tensor.hpp"
#include "io/snapshot.hpp"
#include "io/tns_ingest.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "sim/platform.hpp"
#include "tensor/generator.hpp"
#include "tensor/profiles.hpp"
#include "tensor/tns_io.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace amped;

constexpr nnz_t kNnz = 1u << 20;

// Two working-set regimes for the EC kernel's factor gathers:
//  - kCacheResident: input-mode factors fit L2 even at rank 64 — the
//    regime AMPED's shard kernels run in (bounded per-shard row sets).
//  - kDramBound: multi-MB input factors; gathers stream from L3/DRAM.
enum class EcWorkingSet { kCacheResident, kDramBound };

const CooTensor& sorted_tensor(EcWorkingSet ws) {
  auto make = [](std::vector<index_t> dims, std::uint64_t seed) {
    GeneratorOptions gen;
    gen.dims = std::move(dims);
    gen.nnz = kNnz;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = seed;
    auto out = generate_random(gen);
    out.sort_by_mode(0);
    return out;
  };
  static const CooTensor cache_resident =
      make({1u << 16, 1u << 12, 1u << 12}, 21);
  static const CooTensor dram_bound = make({1u << 16, 1u << 13, 1u << 14}, 21);
  return ws == EcWorkingSet::kCacheResident ? cache_resident : dram_bound;
}

const CooTensor& unsorted_tensor() {
  static const CooTensor t = [] {
    GeneratorOptions gen;
    gen.dims = {1u << 16, 1u << 13, 1u << 14};
    gen.nnz = kNnz;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = 22;
    return generate_random(gen);
  }();
  return t;
}

const FactorSet& factors(EcWorkingSet ws, std::size_t rank) {
  static std::unordered_map<std::size_t, FactorSet> cache[2];
  auto& slot = cache[static_cast<std::size_t>(ws)];
  auto it = slot.find(rank);
  if (it == slot.end()) {
    Rng rng(7 + rank);
    it = slot.emplace(rank,
                      FactorSet(sorted_tensor(ws).dims(), rank, rng)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// EC kernel

void bm_ec_sorted(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats =
        run_ec_block(t, 0, t.nnz(), 0, f, out, BlockOrder::kOutputSorted);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_sorted, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/sorted")->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    // Off-menu ranks: tiled dispatch (greedy 64s + one multiple-of-4
    // tile + <=3 remainder). 20/48/100/200 track the rank-cliff repair
    // in the trajectory JSON alongside the single-tile menu ranks.
    ->Arg(20)->Arg(48)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ec_sorted, dram, EcWorkingSet::kDramBound)
    ->Name("ec/sorted_dram")->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ec/sorted/32's tensor run the way a shard kernel runs it: the program
// resolved once, and an ISP split at ceil(n / 142) (142 = the default RTX
// 6000 Ada's SM count) whose run statistics the stats tile records while
// it runs. CI fails if this is more than 5% slower than ec/sorted/32 in
// the same run.
void bm_ec_sorted_isp(benchmark::State& state) {
  const auto& t = sorted_tensor(EcWorkingSet::kCacheResident);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(EcWorkingSet::kCacheResident, rank);
  DenseMatrix out(t.dim(0), rank);
  const TileProgram& program = KernelCache::global().find_or_create(
      KernelShape::of(t.num_modes(), rank, BlockOrder::kOutputSorted));
  const nnz_t isp_size = isp_count(t.nnz(), 142);
  for (auto _ : state) {
    std::vector<sim::EcBlockStats> isps(isp_count(t.nnz(), isp_size));
    const IspSplit split{isp_size, isps};
    auto stats = run_ec_block(program, t, 0, t.nnz(), 0, f, out, &split);
    benchmark::DoNotOptimize(stats.max_run);
    benchmark::DoNotOptimize(isps.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_ec_sorted_isp)->Name("ec/sorted_isp")->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Unsorted off-menu series: same tiled passes plus the exact per-index
// multiplicity tally unsorted blocks pay for their stats.
void bm_ec_unsorted(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Rng rng(7 + rank);
  const FactorSet f(t.dims(), rank, rng);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = run_ec_block(t, 0, t.nnz(), 0, f, out,
                              BlockOrder::kUnsorted);
    benchmark::DoNotOptimize(stats.max_multiplicity);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_ec_unsorted)->Name("ec/unsorted")->Arg(100)
    ->Unit(benchmark::kMillisecond);

// The retained single-pass runtime-rank kernel (the pre-tiling fallback
// every off-menu rank used to hit, and the bit-identity reference).
// ec/sorted/R vs ec/generic/R is the tiled kernel's gain measured on the
// same machine in the same run — the ratios CI gates on (R = 100: the
// rank-cliff repair; R = 32: the register-resident run loop), because
// absolute nnz/s is runner hardware.
void bm_ec_generic(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = run_ec_block_generic(t, 0, t.nnz(), 0, f, out,
                                      BlockOrder::kOutputSorted);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_generic, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/generic")->Arg(32)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Twitch-shaped 5-mode tensor (Twitch at 1/1000: 15.5K x 6.2K x 784 x
// 64 x 64, 0.5M nnz), sorted by mode 0: the 4-input kernel body, tiled
// (ec/sorted_5mode) and generic (ec/generic_5mode).
const CooTensor& twitch_tensor() {
  static const CooTensor t = [] {
    auto out = generate_scaled(twitch_profile(), 1000.0).tensor;
    out.sort_by_mode(0);
    return out;
  }();
  return t;
}

void bm_ec_5mode(benchmark::State& state, bool tiled) {
  const auto& t = twitch_tensor();
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  Rng rng(7 + rank);
  const FactorSet f(t.dims(), rank, rng);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats =
        tiled ? run_ec_block(t, 0, t.nnz(), 0, f, out,
                             BlockOrder::kOutputSorted)
              : run_ec_block_generic(t, 0, t.nnz(), 0, f, out,
                                     BlockOrder::kOutputSorted);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_5mode, tiled, true)
    ->Name("ec/sorted_5mode")->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ec_5mode, generic, false)
    ->Name("ec/generic_5mode")->Arg(32)->Unit(benchmark::kMillisecond);

// Pre-PR EC kernel, verbatim: per-element span gathers, per-element
// unordered_map multiplicity insert.
sim::EcBlockStats reference_ec_block(const CooTensor& t, nnz_t begin,
                                     nnz_t end, std::size_t output_mode,
                                     const FactorSet& f, DenseMatrix& out) {
  const std::size_t modes = t.num_modes();
  const std::size_t rank = f.rank();
  sim::EcBlockStats stats;
  stats.nnz = end - begin;
  stats.modes = modes;
  stats.rank = rank;
  if (begin == end) return stats;
  const auto out_idx = t.indices(output_mode);
  const auto vals = t.values();
  std::array<value_t, 256> scratch{};
  index_t run_index = out_idx[begin];
  nnz_t run_len = 0;
  stats.output_runs = 1;
  std::unordered_map<index_t, nnz_t> multiplicity;
  multiplicity.reserve(static_cast<std::size_t>(end - begin));
  for (nnz_t n = begin; n < end; ++n) {
    const value_t v = vals[n];
    for (std::size_t r = 0; r < rank; ++r) scratch[r] = v;
    for (std::size_t w = 0; w < modes; ++w) {
      if (w == output_mode) continue;
      const auto row = f.factor(w).row(t.indices(w)[n]);
      for (std::size_t r = 0; r < rank; ++r) scratch[r] *= row[r];
    }
    const index_t i = out_idx[n];
    auto out_row = out.row(i);
    for (std::size_t r = 0; r < rank; ++r) out_row[r] += scratch[r];
    if (i == run_index) {
      ++run_len;
    } else {
      stats.max_run = std::max(stats.max_run, run_len);
      ++stats.output_runs;
      run_index = i;
      run_len = 1;
    }
    stats.max_multiplicity =
        std::max(stats.max_multiplicity, ++multiplicity[i]);
  }
  stats.max_run = std::max(stats.max_run, run_len);
  return stats;
}

void bm_ec_reference(benchmark::State& state, EcWorkingSet ws) {
  const auto& t = sorted_tensor(ws);
  const std::size_t rank = static_cast<std::size_t>(state.range(0));
  const auto& f = factors(ws, rank);
  DenseMatrix out(t.dim(0), rank);
  for (auto _ : state) {
    auto stats = reference_ec_block(t, 0, t.nnz(), 0, f, out);
    benchmark::DoNotOptimize(stats.max_run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK_CAPTURE(bm_ec_reference, l2, EcWorkingSet::kCacheResident)
    ->Name("ec/reference")->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(bm_ec_reference, dram, EcWorkingSet::kDramBound)
    ->Name("ec/reference_dram")->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Preprocessing sorts. The radix sort would spread over the global pool,
// where Google Benchmark's CPU-time rates cannot see it; these series run
// it on a 1-thread pool instead, so each rate is the single-thread sort
// throughput — what one mode's sort gets inside the resident build, which
// sorts its modes concurrently, and comparable with the serial pre-PR
// sorts.

// Runs the enclosing benchmark on a 1-thread pool.
struct SerialPool {
  SerialPool() { set_host_parallelism(1); }
  ~SerialPool() { set_host_parallelism(0); }
};

void bm_sort_radix(benchmark::State& state) {
  const SerialPool serial;
  const auto& t = unsorted_tensor();
  std::vector<std::size_t> order(t.num_modes());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (auto _ : state) {
    auto perm = formats::lexicographic_permutation(t, order);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_radix)->Name("sort/lexicographic")
    ->Unit(benchmark::kMillisecond);

// Pre-PR lexicographic permutation, verbatim.
void bm_sort_reference(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  std::vector<std::size_t> order(t.num_modes());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (auto _ : state) {
    std::vector<nnz_t> perm(t.nnz());
    std::iota(perm.begin(), perm.end(), nnz_t{0});
    std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
      for (std::size_t m : order) {
        const auto idx = t.indices(m);
        if (idx[a] != idx[b]) return idx[a] < idx[b];
      }
      return false;
    });
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_reference)->Name("sort/reference")
    ->Unit(benchmark::kMillisecond);

void bm_sort_by_mode(benchmark::State& state) {
  const SerialPool serial;
  const auto& t = unsorted_tensor();
  for (auto _ : state) {
    CooTensor copy = t;
    copy.sort_by_mode(1);
    benchmark::DoNotOptimize(copy.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz()));
}
BENCHMARK(bm_sort_by_mode)->Name("sort/by_mode_with_apply")
    ->Unit(benchmark::kMillisecond);

// The sort layer of an AMPED build: every mode's packed copy of `t`,
// sorted from the input columns straight into its records.
void sort_every_mode(benchmark::State& state, const CooTensor& t) {
  const SerialPool serial;
  std::vector<std::span<const index_t>> columns;
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    columns.push_back(t.indices(m));
  }
  for (auto _ : state) {
    for (std::size_t d = 0; d < t.num_modes(); ++d) {
      PackedCopy copy;
      copy.assign_sorted(t.dims(), columns, t.values(), d);
      benchmark::DoNotOptimize(copy.bytes().data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}

// Patents-shaped input (Table 3 at 1/1000: 46 x 239 x 239, 3.6M nnz,
// 22-bit keys, many duplicate coordinates): the 8-byte record path.
void bm_sort_by_mode_patents(benchmark::State& state) {
  static const CooTensor t = generate_scaled(patents_profile(), 1000.0).tensor;
  sort_every_mode(state, t);
}
BENCHMARK(bm_sort_by_mode_patents)->Name("sort/by_mode_patents")
    ->Unit(benchmark::kMillisecond);

// Amazon-shaped input (Table 3 at 1/500: 9.6K x 3.6K x 3.6K, 3.4M nnz,
// 38-bit keys): 8-byte records of the low 32 key bits plus a high-bits
// table.
void bm_sort_by_mode_amazon(benchmark::State& state) {
  static const CooTensor t = generate_scaled(amazon_profile(), 500.0).tensor;
  sort_every_mode(state, t);
}
BENCHMARK(bm_sort_by_mode_amazon)->Name("sort/by_mode_amazon")
    ->Unit(benchmark::kMillisecond);

// Table 3 profiles at their full dims and 1M nnz: keys over 64 bits, two
// radix passes per mode into 16-byte records plus a high-bits table.
CooTensor full_dims_tensor(const DatasetProfile& profile) {
  GeneratorOptions gen;
  gen.dims.assign(profile.full_dims.begin(), profile.full_dims.end());
  gen.nnz = 1'000'000;
  gen.zipf_exponents = profile.zipf_exponents;
  gen.seed = profile.seed;
  return generate_random(gen);
}

// Full Amazon (4.8M x 1.8M x 1.8M): 65-bit keys.
void bm_sort_by_mode_amazon_full(benchmark::State& state) {
  static const CooTensor t = full_dims_tensor(amazon_profile());
  sort_every_mode(state, t);
}
BENCHMARK(bm_sort_by_mode_amazon_full)->Name("sort/by_mode_amazon_full")
    ->Unit(benchmark::kMillisecond);

// Full Twitch (15.5M x 6.2M x 783.9K x 6.1K x 6.1K): 93-bit keys.
void bm_sort_by_mode_twitch_full(benchmark::State& state) {
  static const CooTensor t = full_dims_tensor(twitch_profile());
  sort_every_mode(state, t);
}
BENCHMARK(bm_sort_by_mode_twitch_full)->Name("sort/by_mode_twitch_full")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Storage engine: text ingest and snapshot reload (nnz/s series tracked
// PR over PR alongside the kernel numbers). io/tns_ingest_serial is the
// stream reader, which runs the text parser as one chunk, and
// io/tns_ingest_parallel the same parser over the pool; snapshot reload
// should stay >= 10x the text parse on the same tensor.

const CooTensor& io_tensor() {
  static const CooTensor t = [] {
    GeneratorOptions gen;
    gen.dims = {1u << 15, 1u << 12, 1u << 13};
    gen.nnz = 1u << 19;
    gen.zipf_exponents = {1.0, 0.0, 0.5};
    gen.seed = 23;
    return generate_random(gen);
  }();
  return t;
}

const std::string& io_tns_text() {
  static const std::string text = [] {
    std::ostringstream out;
    write_tns(io_tensor(), out);
    return out.str();
  }();
  return text;
}

// Snapshot written once to the temp dir and cleaned at process exit.
const std::string& io_snapshot_path() {
  static const std::string path = [] {
    auto p = (std::filesystem::temp_directory_path() /
              "amped_bench_host_throughput.amptns").string();
    io::write_snapshot_file(io_tensor(), p);
    static struct Cleanup {
      std::string path;
      ~Cleanup() { std::remove(path.c_str()); }
    } cleanup{p};
    return p;
  }();
  return path;
}

void bm_tns_ingest_serial(benchmark::State& state) {
  const auto& text = io_tns_text();
  for (auto _ : state) {
    std::istringstream in(text);
    auto t = read_tns(in);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_tns_ingest_serial)->Name("io/tns_ingest_serial")
    ->Unit(benchmark::kMillisecond);

void bm_tns_ingest_parallel(benchmark::State& state) {
  const auto& text = io_tns_text();
  for (auto _ : state) {
    auto t = io::read_tns_text(text);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_tns_ingest_parallel)->Name("io/tns_ingest_parallel")
    ->Unit(benchmark::kMillisecond);

void bm_snapshot_write(benchmark::State& state) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "amped_bench_snapshot_write.amptns").string();
  for (auto _ : state) {
    io::write_snapshot_file(io_tensor(), path);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_write)->Name("io/snapshot_write")
    ->Unit(benchmark::kMillisecond);

// Owned reload: checksum-verified read into resident vectors.
void bm_snapshot_reload(benchmark::State& state) {
  const auto& path = io_snapshot_path();
  for (auto _ : state) {
    auto t = io::read_snapshot_file(path);
    benchmark::DoNotOptimize(t.nnz());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_reload)->Name("io/snapshot_reload")
    ->Unit(benchmark::kMillisecond);

// Zero-copy reload: mmap + checksum sweep, no materialisation.
void bm_snapshot_reload_mmap(benchmark::State& state) {
  const auto& path = io_snapshot_path();
  for (auto _ : state) {
    io::MappedCooTensor mapped(path);
    benchmark::DoNotOptimize(mapped.values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(io_tensor().nnz()));
}
BENCHMARK(bm_snapshot_reload_mmap)->Name("io/snapshot_reload_mmap")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// End to end

void bm_amped_build(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  for (auto _ : state) {
    auto tensor = AmpedTensor::build(t, build);
    benchmark::DoNotOptimize(tensor.total_bytes());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_amped_build)->Name("e2e/amped_build")
    ->Unit(benchmark::kMillisecond);

void bm_mttkrp_all_modes(benchmark::State& state) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(t, build);
  const auto& f = factors(EcWorkingSet::kDramBound, 32);
  MttkrpOptions options;
  for (auto _ : state) {
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp_all_modes(platform, tensor, f, outputs, options);
    benchmark::DoNotOptimize(report.total_seconds);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}
BENCHMARK(bm_mttkrp_all_modes)->Name("e2e/mttkrp_all_modes")
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// ALS mode update, pass by pass: the host-side gram refresh, normal-
// equation solve and column normalisation that follow every MTTKRP
// (AlsState::update_mode, the als.solve_s layer of the end-to-end
// benchmark), on the five mode shapes of Twitch at 1/1000 scale and rank
// 32. Each iteration runs one pass over every mode; items are factor rows
// per wall second (the passes run on the pool, so the calling thread's CPU
// time would overstate them; Google Benchmark prints the series with a
// /real_time suffix). als/gram_serial/r32 is the scalar loop the blocked
// gram must reproduce bit for bit (tests/linalg_test.cpp's oracle),
// measured in the same run: CI fails when the blocked gram is not well
// ahead of it.

struct AlsModes {
  std::vector<DenseMatrix> factors;  // I_d x R
  std::vector<DenseMatrix> mttkrp;   // I_d x R, fixed random values
  std::vector<DenseMatrix> normal;   // R x R: hadamard of the other grams
  std::int64_t rows = 0;
};

const AlsModes& als_modes() {
  static const AlsModes modes = [] {
    constexpr std::size_t kRank = 32;
    const std::array<std::size_t, 5> dims = {15500, 6200, 784, 64, 64};
    AlsModes m;
    Rng rng(32);
    std::vector<DenseMatrix> grams;
    for (std::size_t rows : dims) {
      m.factors.emplace_back(rows, kRank).fill_random(rng);
      m.mttkrp.emplace_back(rows, kRank).fill_random(rng);
      grams.push_back(linalg::gram(m.factors.back()));
      m.rows += static_cast<std::int64_t>(rows);
    }
    for (std::size_t d = 0; d < dims.size(); ++d) {
      DenseMatrix v(kRank, kRank, value_t{1});
      for (std::size_t w = 0; w < dims.size(); ++w) {
        if (w != d) v = linalg::hadamard(v, grams[w]);
      }
      m.normal.push_back(std::move(v));
    }
    return m;
  }();
  return modes;
}

void set_als_rows_processed(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          als_modes().rows);
}

// The scalar gram loop, verbatim from tests/linalg_test.cpp's oracle.
DenseMatrix gram_serial(const DenseMatrix& a) {
  const std::size_t r = a.cols();
  DenseMatrix g(r, r);
  for (std::size_t row = 0; row < a.rows(); ++row) {
    const auto ar = a.row(row);
    for (std::size_t i = 0; i < r; ++i) {
      const double ai = ar[i];
      for (std::size_t j = i; j < r; ++j) {
        g(i, j) += static_cast<value_t>(ai * ar[j]);
      }
    }
  }
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

template <DenseMatrix (*Gram)(const DenseMatrix&)>
void bm_als_gram(benchmark::State& state) {
  const AlsModes& m = als_modes();
  for (auto _ : state) {
    for (const DenseMatrix& f : m.factors) {
      const DenseMatrix g = Gram(f);
      benchmark::DoNotOptimize(g.data().data());
    }
  }
  set_als_rows_processed(state);
}
BENCHMARK(bm_als_gram<linalg::gram>)->Name("als/gram/r32")
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(bm_als_gram<gram_serial>)->Name("als/gram_serial/r32")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_als_solve(benchmark::State& state) {
  const AlsModes& m = als_modes();
  std::vector<DenseMatrix> x = m.factors;
  for (auto _ : state) {
    for (std::size_t d = 0; d < x.size(); ++d) {
      linalg::solve_normal_equations(m.normal[d], m.mttkrp[d], x[d]);
    }
    benchmark::ClobberMemory();
  }
  set_als_rows_processed(state);
}
BENCHMARK(bm_als_solve)->Name("als/solve/r32")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Normalises in place: after the first pass the columns have unit norm,
// which costs the same sweeps as any other values.
void bm_als_normalize(benchmark::State& state) {
  std::vector<DenseMatrix> x = als_modes().mttkrp;
  std::vector<double> norms(x.front().cols());
  for (auto _ : state) {
    for (DenseMatrix& f : x) {
      benchmark::DoNotOptimize(linalg::normalize_columns(f, norms));
    }
    benchmark::ClobberMemory();
  }
  set_als_rows_processed(state);
}
BENCHMARK(bm_als_normalize)->Name("als/normalize/r32")
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Plan-engine dispatch overhead: the same MTTKRP sweep through the
// execution-plan engine (dispatch/plan_engine) and through the frozen
// pre-engine loop (dispatch/reference_loop, exec/reference_loop.cpp).
// Both run identical arithmetic and produce identical simulated times.
// They differ in two ways: the task IR + executor abstraction, and the ISP
// run statistics — the engine's shard kernels record them inside the EC
// pass, the reference loop rescans each ISP's output indices after it. So
// the ratio is the abstraction's cost net of that rescan. CI compares the
// two and fails if the plan engine is more than 5% slower.
//
// Every dispatch series times the same fixed number of sweeps per
// repetition, after one untimed warm-up sweep (Google Benchmark names
// them ".../iterations:16"). Left to size its own count, each series took
// it from the main thread's CPU time, a tenth of the wall time here, so
// two registrations of one function timed 6 and 24 sweeps per repetition
// and weighed the first, cold sweep differently: the metrics gate's A/A
// pair read 4-13% apart.
constexpr int kDispatchSweeps = 16;

template <typename Fn>
void bm_dispatch(benchmark::State& state, Fn mttkrp) {
  const auto& t = unsorted_tensor();
  AmpedBuildOptions build;
  build.num_gpus = 4;
  const auto tensor = AmpedTensor::build(t, build);
  const auto& f = factors(EcWorkingSet::kDramBound, 32);
  MttkrpOptions options;
  auto sweep = [&] {
    auto platform = sim::make_default_platform(build.num_gpus);
    std::vector<DenseMatrix> outputs;
    auto report = mttkrp(platform, tensor, f, outputs, options);
    benchmark::DoNotOptimize(report.total_seconds);
  };
  sweep();
  for (auto _ : state) sweep();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(t.nnz() * t.num_modes()));
}

void bm_dispatch_plan(benchmark::State& state) {
  bm_dispatch(state, [](auto&... args) { return mttkrp_all_modes(args...); });
}
BENCHMARK(bm_dispatch_plan)->Name("dispatch/plan_engine")
    ->Unit(benchmark::kMillisecond)->Iterations(kDispatchSweeps);

void bm_dispatch_reference(benchmark::State& state) {
  bm_dispatch(state, [](auto&... args) {
    return exec::reference_loop_mttkrp_all_modes(args...);
  });
}
BENCHMARK(bm_dispatch_reference)->Name("dispatch/reference_loop")
    ->Unit(benchmark::kMillisecond)->Iterations(kDispatchSweeps);
// The A/A arm of the plan-engine gate (scripts/ab_gate.py): the baseline
// series registered a second time, so the gate can tell the spread of
// two identical series from a real overhead.
BENCHMARK(bm_dispatch_reference)->Name("dispatch/reference_loop_aa")
    ->Unit(benchmark::kMillisecond)->Iterations(kDispatchSweeps);

// The same sweep with the metrics registry disabled: CI compares
// dispatch/plan_engine against this series and fails if instrumentation
// costs more than 2% (the counters on this path drop after one relaxed
// flag load when disabled, so the delta IS the instrumentation price).
void bm_dispatch_plan_metrics_off(benchmark::State& state) {
  metrics::set_enabled(false);
  bm_dispatch(state, [](auto&... args) { return mttkrp_all_modes(args...); });
  metrics::set_enabled(true);
}
BENCHMARK(bm_dispatch_plan_metrics_off)->Name("dispatch/plan_engine_metrics_off")
    ->Unit(benchmark::kMillisecond)->Iterations(kDispatchSweeps);
// The A/A arm of the metrics-overhead gate.
BENCHMARK(bm_dispatch_plan_metrics_off)
    ->Name("dispatch/plan_engine_metrics_off_aa")
    ->Unit(benchmark::kMillisecond)->Iterations(kDispatchSweeps);

// ---------------------------------------------------------------------------
// Metrics-overhead microbenchmarks: the raw cost of one instrumentation
// event, on and off, so a regression in the hot-path price is visible
// without running a full sweep.

void bm_metrics_counter_inc(benchmark::State& state) {
  auto& c = metrics::counter("bench.counter");
  for (auto _ : state) c.inc();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_counter_inc)->Name("metrics/counter_inc");

void bm_metrics_counter_inc_disabled(benchmark::State& state) {
  auto& c = metrics::counter("bench.counter_off");
  metrics::set_enabled(false);
  for (auto _ : state) c.inc();
  metrics::set_enabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_counter_inc_disabled)
    ->Name("metrics/counter_inc_disabled");

void bm_metrics_histogram_record(benchmark::State& state) {
  auto& h = metrics::histogram("bench.hist");
  for (auto _ : state) h.record_seconds(1e-6);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_histogram_record)->Name("metrics/histogram_record");

void bm_metrics_snapshot(benchmark::State& state) {
  metrics::counter("bench.snap").inc();
  metrics::histogram("bench.snap_hist").record_seconds(1e-6);
  for (auto _ : state) {
    auto json = metrics::Registry::global().snapshot_json();
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_metrics_snapshot)->Name("metrics/snapshot_json");

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::printf("host threads: %zu (override with AMPED_THREADS)\n",
              amped::host_parallelism());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
