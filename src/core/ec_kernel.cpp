#include "core/ec_kernel.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "core/kernel_cache.hpp"

namespace amped {

#if defined(__GNUC__) || defined(__clang__)
#define AMPED_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define AMPED_PREFETCH(addr) ((void)0)
#endif

namespace {

// Scratch rows this long live on the stack in the generic reference
// kernel; longer ranks fall back to heap buffers. The tiled dispatch path
// has no rank ceiling at all — its buffers are sized by tile width.
constexpr std::size_t kMaxStackRank = 256;

// Elements looked ahead for factor-row prefetches in the reference
// kernel (the tile kernels in core/kernel_cache.cpp look further ahead;
// prefetching does not change any result).
constexpr nnz_t kPrefetchDistance = 8;

// Single-pass arithmetic + run-structure core with runtime rank, writing
// through caller-provided scratch rows. This is the pre-tiling
// implementation kept as the bit-identity reference: per column c the
// sequence prod = v * row0[c], *= row1[c], *= higher rows in mode order,
// accumulated in element order with one output-row flush per run, is what
// every tile pass reproduces for its column slice.
sim::EcBlockStats generic_ec_pass(const index_t* __restrict out_idx,
                                  const value_t* __restrict vals,
                                  const EcInputMode* __restrict inputs,
                                  std::size_t num_inputs, std::size_t rank,
                                  nnz_t begin, nnz_t end,
                                  value_t* __restrict out_data,
                                  value_t* __restrict acc,
                                  value_t* __restrict prod) {
  sim::EcBlockStats stats;
  stats.nnz = end - begin;
  stats.rank = rank;

  const index_t* __restrict idx0 = num_inputs > 0 ? inputs[0].idx : nullptr;
  const value_t* __restrict fac0 = num_inputs > 0 ? inputs[0].fac : nullptr;
  const index_t* __restrict idx1 = num_inputs > 1 ? inputs[1].idx : nullptr;
  const value_t* __restrict fac1 = num_inputs > 1 ? inputs[1].fac : nullptr;

  index_t run_index = out_idx[begin];
  nnz_t run_len = 0;
  stats.output_runs = 1;
  for (std::size_t r = 0; r < rank; ++r) acc[r] = value_t{0};

  for (nnz_t n = begin; n < end; ++n) {
    if (rank >= 16 && n + kPrefetchDistance < end) {
      if (idx0 != nullptr) {
        const value_t* next =
            fac0 +
            static_cast<std::size_t>(idx0[n + kPrefetchDistance]) * rank;
        AMPED_PREFETCH(next);
        for (std::size_t b = 16; b < rank; b += 16) AMPED_PREFETCH(next + b);
      }
      if (idx1 != nullptr) {
        const value_t* next =
            fac1 +
            static_cast<std::size_t>(idx1[n + kPrefetchDistance]) * rank;
        AMPED_PREFETCH(next);
        for (std::size_t b = 16; b < rank; b += 16) AMPED_PREFETCH(next + b);
      }
    }

    const value_t v = vals[n];
    if (idx0 == nullptr) {
      for (std::size_t r = 0; r < rank; ++r) prod[r] = v;
    } else {
      const value_t* __restrict row0 =
          fac0 + static_cast<std::size_t>(idx0[n]) * rank;
      for (std::size_t r = 0; r < rank; ++r) prod[r] = v * row0[r];
      if (idx1 != nullptr) {
        const value_t* __restrict row1 =
            fac1 + static_cast<std::size_t>(idx1[n]) * rank;
        for (std::size_t r = 0; r < rank; ++r) prod[r] *= row1[r];
      }
      for (std::size_t w = 2; w < num_inputs; ++w) {
        const value_t* __restrict row =
            inputs[w].fac + static_cast<std::size_t>(inputs[w].idx[n]) * rank;
        for (std::size_t r = 0; r < rank; ++r) prod[r] *= row[r];
      }
    }

    const index_t i = out_idx[n];
    if (i != run_index) {
      value_t* __restrict out_row =
          out_data + static_cast<std::size_t>(run_index) * rank;
      for (std::size_t r = 0; r < rank; ++r) out_row[r] += acc[r];
      for (std::size_t r = 0; r < rank; ++r) acc[r] = prod[r];
      stats.max_run = std::max(stats.max_run, run_len);
      ++stats.output_runs;
      run_index = i;
      run_len = 1;
    } else {
      for (std::size_t r = 0; r < rank; ++r) acc[r] += prod[r];
      ++run_len;
    }
  }
  value_t* __restrict out_row =
      out_data + static_cast<std::size_t>(run_index) * rank;
  for (std::size_t r = 0; r < rank; ++r) out_row[r] += acc[r];
  stats.max_run = std::max(stats.max_run, run_len);
  return stats;
}

// Hoisted per-block pointer views shared by both entry points.
struct BlockView {
  std::array<EcInputMode, kMaxModes> inputs{};
  std::size_t num_inputs = 0;
  const index_t* out_idx = nullptr;
  const value_t* vals = nullptr;
  value_t* out_data = nullptr;
};

BlockView make_block_view(const CooTensor& t, std::size_t output_mode,
                          const FactorSet& factors, DenseMatrix& out) {
  BlockView view;
  for (std::size_t w = 0; w < t.num_modes(); ++w) {
    if (w == output_mode) continue;
    view.inputs[view.num_inputs++] = {t.indices(w).data(),
                                      factors.factor(w).data().data()};
  }
  view.out_idx = t.indices(output_mode).data();
  view.vals = t.values().data();
  view.out_data = out.data().data();
  return view;
}

void validate_block([[maybe_unused]] const CooTensor& t,
                    [[maybe_unused]] nnz_t begin, [[maybe_unused]] nnz_t end,
                    [[maybe_unused]] std::size_t output_mode,
                    const FactorSet& factors) {
  assert(end <= t.nnz() && begin <= end);
  assert(output_mode < t.num_modes());
  if (factors.rank() == 0) {
    throw std::invalid_argument("run_ec_block: rank must be >= 1");
  }
}

// max_multiplicity for a finished block: the arithmetic kernels gather the
// run structure; the order decides whether a tally is needed.
void finish_multiplicity(sim::EcBlockStats& stats, BlockOrder order,
                         const index_t* out_idx, nnz_t begin, nnz_t end) {
  if (order == BlockOrder::kOutputSorted) {
    // Output-sorted block: every output index is one contiguous run, so
    // the highest per-index count *is* the longest run.
    stats.max_multiplicity = stats.max_run;
  } else {
    // Unsorted block: exact per-index tally, off the arithmetic path.
    std::unordered_map<index_t, nnz_t> multiplicity;
    multiplicity.reserve(static_cast<std::size_t>(end - begin));
    nnz_t max_mult = 0;
    for (nnz_t n = begin; n < end; ++n) {
      max_mult = std::max(max_mult, ++multiplicity[out_idx[n]]);
    }
    stats.max_multiplicity = max_mult;
  }
}

sim::EcBlockStats empty_block_stats(std::size_t modes, std::size_t rank) {
  sim::EcBlockStats stats;
  stats.modes = modes;
  stats.rank = rank;
  return stats;
}

// Validates an ISP split of an n-element block and zeroes its entries.
void prepare_split(const IspSplit& split, BlockOrder order, nnz_t n,
                   std::size_t modes, std::size_t rank) {
  // Sorted blocks only: there max_multiplicity == max_run per window.
  if (order != BlockOrder::kOutputSorted) {
    throw std::invalid_argument(
        "run_ec_block: an ISP split needs an output-sorted program");
  }
  if (split.size == 0) {
    throw std::invalid_argument("run_ec_block: ISP size must be >= 1");
  }
  const nnz_t windows = isp_count(n, split.size);
  if (split.blocks.size() != windows) {
    throw std::invalid_argument(
        "run_ec_block: an ISP split needs ceil(n / size) entries");
  }
  for (nnz_t k = 0; k < windows; ++k) {
    sim::EcBlockStats& isp = split.blocks[k];
    isp = empty_block_stats(modes, rank);
    isp.nnz = std::min(split.size, n - k * split.size);
  }
}

void finish_split(const IspSplit& split) {
  for (sim::EcBlockStats& isp : split.blocks) {
    isp.max_multiplicity = isp.max_run;
  }
}

}  // namespace

KernelShape KernelShape::of(std::size_t num_modes, std::size_t rank,
                            BlockOrder order) {
  if (rank == 0) {
    throw std::invalid_argument("KernelShape: rank must be >= 1");
  }
  KernelShape shape;
  shape.rank = static_cast<std::uint32_t>(rank);
  shape.modes = static_cast<std::uint8_t>(num_modes);
  shape.index_width = sizeof(index_t);
  shape.order = static_cast<std::uint8_t>(order);
  return shape;
}

std::size_t KernelShape::hash() const {
  // splitmix64 finaliser: the packed key's low bits (the rank) would
  // otherwise collide whole shape families into one cache bucket.
  std::uint64_t x = packed();
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

sim::EcBlockStats run_ec_block(const CooTensor& t, nnz_t begin, nnz_t end,
                               std::size_t output_mode,
                               const FactorSet& factors, DenseMatrix& out,
                               BlockOrder order) {
  validate_block(t, begin, end, output_mode, factors);
  const auto shape = KernelShape::of(t.num_modes(), factors.rank(), order);
  const TileProgram& program = KernelCache::global().find_or_create(shape);
  return run_ec_block(program, t, begin, end, output_mode, factors, out);
}

sim::EcBlockStats run_ec_block(const TileProgram& program, const CooTensor& t,
                               nnz_t begin, nnz_t end,
                               std::size_t output_mode,
                               const FactorSet& factors, DenseMatrix& out,
                               const IspSplit* split) {
  validate_block(t, begin, end, output_mode, factors);
  const std::size_t modes = t.num_modes();
  const std::size_t rank = factors.rank();
  const auto order = static_cast<BlockOrder>(program.shape().order);
  assert(program.shape().rank == rank);
  assert(program.shape() == KernelShape::of(modes, rank, order));

  if (split != nullptr) prepare_split(*split, order, end - begin, modes, rank);

  if (begin == end) return empty_block_stats(modes, rank);

  const BlockView view = make_block_view(t, output_mode, factors, out);
  sim::EcBlockStats stats =
      program.run(view.out_idx, view.vals, view.inputs.data(),
                  view.num_inputs, begin, end, view.out_data, split);
  stats.modes = modes;
  finish_multiplicity(stats, order, view.out_idx, begin, end);
  if (split != nullptr) finish_split(*split);
  return stats;
}

sim::EcBlockStats run_ec_block(const TileProgram& program,
                               const RecordSpan& records, nnz_t begin,
                               nnz_t end, const FactorSet& factors,
                               DenseMatrix& out, const IspSplit* split) {
  const KeyLayout& layout = *records.layout;
  assert(records.base <= begin && begin <= end && end <= records.end());
  if (factors.rank() == 0) {
    throw std::invalid_argument("run_ec_block: rank must be >= 1");
  }
  const std::size_t modes = layout.num_modes();
  const std::size_t rank = factors.rank();
  assert(program.shape() ==
         KernelShape::of(modes, rank, BlockOrder::kOutputSorted));
  if (split != nullptr) {
    prepare_split(*split, BlockOrder::kOutputSorted, end - begin, modes,
                  rank);
  }
  if (begin == end) return empty_block_stats(modes, rank);

  // Column 0 decodes the output mode, columns 1.. the inputs in mode
  // order: the order make_block_view gives a COO block's inputs.
  EcRecordSource src;
  src.kind = record_kind(layout);
  src.data = records.data;
  src.base = records.base;
  // A copy whose key fits its records has no high-bits table: the passes
  // read it through one zero segment.
  static constexpr HighBitsSegment kZeroSegment[1] = {};
  src.high = records.high.empty() ? kZeroSegment : records.high;
  src.layout = &layout;
  std::array<const value_t*, kMaxModes> fac{};
  std::size_t c = 0;
  auto add_column = [&](std::size_t m) {
    src.mode[c] = m;
    src.shift[c] = layout.shift(m);
    src.mask[c] = layout.mask(m);
    ++c;
  };
  add_column(layout.mode());
  std::size_t num_inputs = 0;
  for (std::size_t m = 0; m < modes; ++m) {
    if (m == layout.mode()) continue;
    fac[num_inputs++] = factors.factor(m).data().data();
    add_column(m);
  }
  sim::EcBlockStats stats = program.run(src, fac.data(), num_inputs, begin,
                                        end, out.data().data(), split);
  stats.modes = modes;
  stats.max_multiplicity = stats.max_run;  // output-sorted: one run per row
  if (split != nullptr) finish_split(*split);
  return stats;
}

sim::EcBlockStats run_ec_block(const RecordSpan& records, nnz_t begin,
                               nnz_t end, const FactorSet& factors,
                               DenseMatrix& out) {
  if (factors.rank() == 0) {
    throw std::invalid_argument("run_ec_block: rank must be >= 1");
  }
  const auto shape = KernelShape::of(records.layout->num_modes(),
                                     factors.rank(),
                                     BlockOrder::kOutputSorted);
  const TileProgram& program = KernelCache::global().find_or_create(shape);
  return run_ec_block(program, records, begin, end, factors, out);
}

sim::EcBlockStats run_ec_block_generic(const CooTensor& t, nnz_t begin,
                                       nnz_t end, std::size_t output_mode,
                                       const FactorSet& factors,
                                       DenseMatrix& out, BlockOrder order) {
  validate_block(t, begin, end, output_mode, factors);
  const std::size_t modes = t.num_modes();
  const std::size_t rank = factors.rank();
  if (begin == end) return empty_block_stats(modes, rank);

  const BlockView view = make_block_view(t, output_mode, factors, out);
  sim::EcBlockStats stats;
  if (rank <= kMaxStackRank) {
    value_t acc[kMaxStackRank];
    value_t prod[kMaxStackRank];
    stats = generic_ec_pass(view.out_idx, view.vals, view.inputs.data(),
                            view.num_inputs, rank, begin, end, view.out_data,
                            acc, prod);
  } else {
    std::vector<value_t> acc(rank);
    std::vector<value_t> prod(rank);
    stats = generic_ec_pass(view.out_idx, view.vals, view.inputs.data(),
                            view.num_inputs, rank, begin, end, view.out_data,
                            acc.data(), prod.data());
  }
  stats.modes = modes;
  finish_multiplicity(stats, order, view.out_idx, begin, end);
  return stats;
}

RunStatsAccumulator::RunStatsAccumulator(const KernelShape& shape)
    : order_(static_cast<BlockOrder>(shape.order)),
      shape_modes_(shape.modes),
      shape_rank_(shape.rank) {}

void RunStatsAccumulator::feed(index_t output_index) {
  if (stats_.nnz == 0 || output_index != run_index_) {
    stats_.max_run = std::max(stats_.max_run, run_len_);
    ++stats_.output_runs;
    run_index_ = output_index;
    run_len_ = 1;
  } else {
    ++run_len_;
  }
  ++stats_.nnz;
  if (order_ == BlockOrder::kUnsorted) {
    stats_.max_multiplicity =
        std::max(stats_.max_multiplicity, ++multiplicity_[output_index]);
  }
}

sim::EcBlockStats RunStatsAccumulator::finish(std::size_t modes,
                                              std::size_t rank,
                                              std::size_t block_width) {
  stats_.max_run = std::max(stats_.max_run, run_len_);
  if (order_ == BlockOrder::kOutputSorted) {
    stats_.max_multiplicity = stats_.max_run;
  }
  stats_.modes = modes;
  stats_.rank = rank;
  stats_.block_width = block_width;
  sim::EcBlockStats out = stats_;
  reset();
  return out;
}

sim::EcBlockStats RunStatsAccumulator::finish(std::size_t block_width) {
  assert(shape_rank_ > 0 && "finish(block_width) needs the shape ctor");
  return finish(shape_modes_, shape_rank_, block_width);
}

void RunStatsAccumulator::reset() {
  stats_ = sim::EcBlockStats{};
  run_index_ = 0;
  run_len_ = 0;
  multiplicity_.clear();
}

}  // namespace amped
