// Elementwise computation (EC) kernel — the numerical core of MTTKRP
// (paper §3.0.1, Algorithm 2 lines 9-19).
//
// Processes a contiguous range of nonzeros for a given output mode: for
// each element, the Hadamard product of the input-mode factor rows is
// scaled by the element value and accumulated into the output-mode row.
// This one routine performs the *real* arithmetic for AMPED and for every
// baseline; callers wrap it with their own partition / transfer / cost
// logic. While executing, it gathers the block statistics (same-output-row
// run structure) the simulator's atomic-contention model consumes — for
// the whole block, and per ISP window when the caller passes a split
// (IspSplit), so a shard kernel prices its grid without rescanning the
// output index.
//
// Two element sources feed the same tile programs:
//  - a packed record range (RecordSpan, tensor/packed_copy.hpp): AMPED's
//    mode copies, resident, streamed or staged. Coordinates are decoded in
//    registers from each record's key; a run ends where the decoded output
//    index changes. This is the only source AMPED shards use.
//  - a COO tensor's index columns: the baselines' blocks, and the
//    run_ec_block_generic reference.
// Both apply the same FP sequence to the same element order, so a record
// range and its decoded COO block give bit-identical output and stats.
//
// Arbitrary ranks are executed as a sequence of compile-time-specialised
// column tiles (64-wide, one multiple-of-4 tile, a <=3 remainder) resolved
// once per distinct KernelShape through core/kernel_cache and cached as a
// TileProgram, so steady-state dispatch is one hash lookup. Each tile
// loops over same-output-index runs outside and a run's elements inside:
// the run's accumulator lives in vector registers and is added to the
// output row once, when the run ends — the register accumulation the cost
// model already assumes for sorted layouts. Input counts 1-4 (2- to
// 5-mode tensors) are compile-time unrolls. Because every rank column
// accumulates independently over the same nonzero order, in the same FP
// operation sequence, the tiled execution is bit-identical to the
// single-pass generic kernel (run_ec_block_generic, kept as the reference
// the equivalence suite compares against); both kernel sources build
// with FP contraction off so no FMA fusion can break that.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "sim/cost_model.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/dense_matrix.hpp"
#include "tensor/packed_copy.hpp"

namespace amped {

class TileProgram;  // core/kernel_cache.hpp

// Element ordering of a block, which decides how run statistics are
// gathered. AMPED shards and FLYCOO's remapped copies are sorted by the
// output-mode index, so every output index forms one contiguous run and
// max_multiplicity == max_run — no per-element bookkeeping beyond the run
// boundary test. Unsorted blocks need an exact per-index tally.
enum class BlockOrder {
  kUnsorted,      // exact multiplicity via a per-index tally
  kOutputSorted,  // multiplicity == longest run; no tally
};

// The cache key of one specialised EC kernel: everything the tile program
// is allowed to bind at build time. Two blocks with equal shapes run the
// exact same code; a future JIT-compiled kernel slots in behind the same
// key without widening it.
struct KernelShape {
  std::uint32_t rank = 0;
  std::uint8_t modes = 0;  // tensor mode count (incl. the output mode)
  // Coordinate width in bytes. index_t is 4 today; the field keeps the
  // key (and any JIT behind it) honest if a 64-bit index build appears.
  std::uint8_t index_width = sizeof(index_t);
  std::uint8_t order = 0;  // BlockOrder, as its underlying value

  // Mode-count bucket the arithmetic is specialised for: 2/3/4 get
  // dedicated input unrolls, 0 is the runtime-mode-count class (1-mode and
  // >=5-mode tensors), whose tiles still pick a 4-input unroll per block
  // for 5-mode tensors. The cache keys on the bucket, not the raw count:
  // every >=5-mode tensor shares one program.
  std::uint8_t mode_class() const {
    return (modes >= 2 && modes <= 4) ? modes : std::uint8_t{0};
  }

  // Throws std::invalid_argument for rank 0 — a zero-width factor set has
  // no meaningful kernel and previously died as stack corruption.
  static KernelShape of(std::size_t num_modes, std::size_t rank,
                        BlockOrder order);

  std::uint64_t packed() const {
    return static_cast<std::uint64_t>(rank) |
           static_cast<std::uint64_t>(mode_class()) << 32 |
           static_cast<std::uint64_t>(index_width) << 40 |
           static_cast<std::uint64_t>(order) << 48;
  }
  std::size_t hash() const;
  friend bool operator==(const KernelShape& a, const KernelShape& b) {
    return a.packed() == b.packed();
  }
};

// Hoisted per-block view of one input mode: one index pointer and one
// factor-data pointer, so the element loops perform no span construction,
// no mode test, and no virtual-width indexing.
struct EcInputMode {
  const index_t* idx;  // coordinate array of this mode
  const value_t* fac;  // factor matrix data, row-major, `rank` wide
};

// Runs EC over elements [begin, end) of `t`, accumulating into `out`
// (dim(output_mode) x R). Resolves the block's TileProgram through the
// process-wide kernel cache (one hash lookup when the shape is warm) and
// returns the block stats for the cost model. Throws std::invalid_argument
// for rank 0; any rank >= 1 is supported via the tile decomposition.
sim::EcBlockStats run_ec_block(const CooTensor& t, nnz_t begin, nnz_t end,
                               std::size_t output_mode,
                               const FactorSet& factors, DenseMatrix& out,
                               BlockOrder order = BlockOrder::kUnsorted);

// A block's split into equal inter-shard partitions (ISPs, §3.2): window
// k covers elements [begin + k*size, begin + (k+1)*size) clipped to the
// block, and `blocks[k]` receives that window's run statistics. A run
// that crosses a window edge counts once in every window it overlaps,
// with its length clipped to the window — exactly what a separate run
// scan over each window reports.
struct IspSplit {
  nnz_t size = 0;                       // nonzeros per ISP, >= 1
  std::span<sim::EcBlockStats> blocks;  // isp_count(end - begin, size)
};

// Windows of `size` (>= 1) nonzeros covering `n`: ceil(n / size).
inline nnz_t isp_count(nnz_t n, nnz_t size) {
  return n / size + (n % size != 0 ? 1 : 0);
}

// Same, with the TileProgram already resolved — the steady-state form for
// callers that run many blocks of one shape (the host backend's shard
// kernels, the baselines' segment loops): resolve once at plan-lowering
// time, skip even the cache lookup per block.
//
// With a `split`, the kernel also records every ISP's run statistics while
// it runs (the shard kernel prices its grid from them) and fills each
// entry's nnz, output_runs, max_run, max_multiplicity, modes and rank;
// block_width is the caller's. The arithmetic is the same with or without
// a split. Throws std::invalid_argument for a split on a kUnsorted program
// (its multiplicity needs a per-window tally), an ISP size of 0, or a
// span of the wrong length.
sim::EcBlockStats run_ec_block(const TileProgram& program, const CooTensor& t,
                               nnz_t begin, nnz_t end,
                               std::size_t output_mode,
                               const FactorSet& factors, DenseMatrix& out,
                               const IspSplit* split = nullptr);

// The record source: EC over absolute records [begin, end) of `records`
// (a range of a packed mode copy sorted by records.layout->mode(), which
// is the output mode). `program` must be an output-sorted shape of the
// copy's mode count and the factors' rank; the split and the returned
// stats are those run_ec_block gives the decoded COO block.
sim::EcBlockStats run_ec_block(const TileProgram& program,
                               const RecordSpan& records, nnz_t begin,
                               nnz_t end, const FactorSet& factors,
                               DenseMatrix& out,
                               const IspSplit* split = nullptr);
// Same, resolving the output-sorted program through the kernel cache.
sim::EcBlockStats run_ec_block(const RecordSpan& records, nnz_t begin,
                               nnz_t end, const FactorSet& factors,
                               DenseMatrix& out);

// Single-pass reference kernel (the pre-tiling implementation, runtime
// rank, no shape cache). The tile programs are asserted bit-identical to
// this by the equivalence suite; it also serves ranks in tests without
// touching the cache. Same argument validation as run_ec_block.
sim::EcBlockStats run_ec_block_generic(const CooTensor& t, nnz_t begin,
                                       nnz_t end, std::size_t output_mode,
                                       const FactorSet& factors,
                                       DenseMatrix& out,
                                       BlockOrder order =
                                           BlockOrder::kUnsorted);

// Incremental collector of the same output-index run statistics for
// callers that drive their own element loops (the baseline kernels over
// BLCO blocks, HiCOO superblocks, ...). Feed output indices in stream
// order, then finish() with the kernel geometry. Constructing with
// kOutputSorted promises indices arrive grouped by value, collapsing the
// multiplicity tally into the run tracker. Constructing with a KernelShape
// binds order, modes, and rank in one place so finish(block_width) cannot
// disagree with the kernel that did the arithmetic.
class RunStatsAccumulator {
 public:
  explicit RunStatsAccumulator(BlockOrder order = BlockOrder::kUnsorted)
      : order_(order) {}
  explicit RunStatsAccumulator(const KernelShape& shape);

  void feed(index_t output_index);
  sim::EcBlockStats finish(std::size_t modes, std::size_t rank,
                           std::size_t block_width);
  // Shape-bound variant; requires the KernelShape constructor.
  sim::EcBlockStats finish(std::size_t block_width);
  void reset();

 private:
  BlockOrder order_;
  std::size_t shape_modes_ = 0;  // 0: constructed without a shape
  std::size_t shape_rank_ = 0;
  sim::EcBlockStats stats_;
  index_t run_index_ = 0;
  nnz_t run_len_ = 0;
  std::unordered_map<index_t, nnz_t> multiplicity_;
};

}  // namespace amped
