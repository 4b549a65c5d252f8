// Per-shape EC kernel cache: runtime specialisation without runtime
// codegen.
//
// The EC kernel is compile-time specialised for a menu of column widths
// (64, every multiple of 4 below it, and 1..3 remainders). An arbitrary
// rank is decomposed greedily into those widths — sim::ec_tile_widths,
// shared with the cost model so pricing and execution agree — and each
// width becomes one *tile pass* over the block's nonzeros, reading and
// writing only its column slice [col, col+width) of the factor and output
// rows. Because every rank column accumulates independently over the same
// nonzero order, the tile passes produce bit-identical results to the
// single-pass generic kernel; each pass accumulates same-output-index
// runs in vector registers and prefetches factor rows ahead, so off-menu
// ranks stop paying the generic kernel's un-unrolled arithmetic and
// oversized gather footprint.
//
// Every pass exists for two element sources: a COO block's index columns
// (EcTileFn: the baselines' blocks and the equivalence suite) and a packed
// mode copy's records (EcRecordTileFn: AMPED shards, tensor/packed_copy.hpp),
// the latter compiled once per record width (8 or 16 bytes). Every record
// source has a high-bits table, one zero segment for a key that fits the
// record. A segment's high part and a key's low part hold disjoint bits,
// so the pass folds the high parts into per-segment bases: entering a
// segment moves each input's factor base by its high part times the row
// stride, and per coordinate the pass decodes only (key >> shift) & mask.
// A run ends where the decoded output index changes, so both sources run
// the same FP sequence over the same element order and give the same bits.
//
// A TileProgram is the pre-bound pass sequence for one KernelShape
// ({rank, mode class, index width, BlockOrder}). Programs are built once
// per distinct shape and cached in a lock-free find-or-create table with
// the same discipline as util/metrics: lookups walk an atomic bucket list
// (one hash, acquire loads, no locks), creation is rare and mutex-guarded,
// and nodes are never freed so a returned reference is stable for the
// process lifetime — callers resolve their program once (per shard, per
// plan, or into a static) and dispatch through it forever. The cache
// counts kernel_cache.{hits,misses,shapes} into the metrics registry.
//
// The seam a JIT takes later: emit code for the exact shape, wrap it as a
// single-tile program, and publish it under the same key — every caller
// already dispatches through the cache and none of them names a tile.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/ec_kernel.hpp"

namespace amped {

// One tile pass: columns [col, col+width) of every row, executed by a
// compile-time-specialised function. `stats` is non-null for exactly one
// tile of a program, the first (the run structure is identical across
// tiles, so only one gathers it): that tile writes the block's nnz,
// output_runs and max_run. `split`, when non-null, goes to the same tile,
// which adds every run to output_runs and max_run of each ISP window the
// run overlaps (the entries arrive zeroed); null for every other tile.
using EcTileFn = void (*)(const index_t* out_idx, const value_t* vals,
                          const EcInputMode* inputs, std::size_t num_inputs,
                          std::size_t rank, std::size_t col, nnz_t begin,
                          nnz_t end, value_t* out_data,
                          sim::EcBlockStats* stats, const IspSplit* split);

// The record source of a tile pass: a range of a packed mode copy's
// records (tensor/packed_copy.hpp) and, per key column, how to decode it.
// Column 0 is the output mode, columns 1.. the input modes in mode order.
// Record n (absolute) starts at data + (n - base) * record bytes; its key
// is the first 4 (8-byte records) or 8 (16-byte records) bytes, its value
// bits follow at half the record width. A column's coordinate is
//   layout->high_part(segment high bits, mode) | ((low >> shift) & mask),
// the high part decoded once per segment, not per record. `high` holds at
// least one segment: run_ec_block gives a copy without a table one zero
// segment.
// Record kinds, each with its own compiled pass (the index into
// EcTile::record_fns): the record width.
enum RecordKind : std::size_t {
  kRecords8 = 0,   // 8-byte records, keys up to 40 bits
  kRecords16 = 1,  // 16-byte records, keys over 40 bits
  kRecordKinds = 2,
};

// The kind of the records a copy with `layout` holds.
inline RecordKind record_kind(const KeyLayout& layout) {
  return layout.record_bytes() == 8 ? kRecords8 : kRecords16;
}

struct EcRecordSource {
  RecordKind kind = kRecords8;
  const std::byte* data = nullptr;
  nnz_t base = 0;
  std::span<const HighBitsSegment> high;
  const KeyLayout* layout = nullptr;
  std::size_t mode[kMaxModes] = {};  // the mode column c decodes
  unsigned shift[kMaxModes] = {};
  std::uint64_t mask[kMaxModes] = {};
};

// A tile pass over a record source: the same pass as EcTileFn, with every
// coordinate decoded in registers and a run ending where the decoded
// output index changes. `fac[w]` is input w's factor data.
using EcRecordTileFn = void (*)(const EcRecordSource& src,
                                const value_t* const* fac,
                                std::size_t num_inputs, std::size_t rank,
                                std::size_t col, nnz_t begin, nnz_t end,
                                value_t* out_data, sim::EcBlockStats* stats,
                                const IspSplit* split);

struct EcTile {
  std::uint32_t col = 0;    // first column this pass covers
  std::uint32_t width = 0;  // columns covered (the specialised width)
  EcTileFn fn = nullptr;
  std::array<EcRecordTileFn, kRecordKinds> record_fns = {};
};

// The pre-bound pass sequence for one kernel shape. Immutable after the
// cache publishes it; safe to run from any number of threads at once.
class TileProgram {
 public:
  const KernelShape& shape() const { return shape_; }
  std::span<const EcTile> tiles() const { return tiles_; }

  // Executes every pass over [begin, end) (begin < end) and returns the
  // run stats (max_multiplicity left for the caller, which knows the
  // block order). `inputs` are the non-output modes in mode order. A
  // non-null `split` (zeroed entries) goes to the stats tile.
  sim::EcBlockStats run(const index_t* out_idx, const value_t* vals,
                        const EcInputMode* inputs, std::size_t num_inputs,
                        nnz_t begin, nnz_t end, value_t* out_data,
                        const IspSplit* split) const;
  // The same passes over absolute records [begin, end) of `src`.
  sim::EcBlockStats run(const EcRecordSource& src, const value_t* const* fac,
                        std::size_t num_inputs, nnz_t begin, nnz_t end,
                        value_t* out_data, const IspSplit* split) const;

 private:
  friend class KernelCache;
  KernelShape shape_;
  std::vector<EcTile> tiles_;
};

// Process-wide find-or-create table of TilePrograms keyed by KernelShape.
class KernelCache {
 public:
  static KernelCache& global();

  // Lock-free on the hit path (one hash + an acquire walk of one bucket);
  // misses serialise on a mutex, rebuild-check, and publish. The returned
  // reference lives for the process lifetime.
  const TileProgram& find_or_create(const KernelShape& shape);

  // Distinct shapes currently cached (sums the bucket chains; monotonic).
  std::size_t size() const;

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

 private:
  KernelCache() = default;

  static TileProgram build_program(const KernelShape& shape);

  static constexpr std::size_t kBuckets = 64;

  struct Node {
    TileProgram program;
    Node* next = nullptr;
  };

  std::atomic<Node*> buckets_[kBuckets] = {};
  std::mutex create_mutex_;
};

}  // namespace amped
