#include "core/kernel_cache.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/metrics.hpp"

namespace amped {

#if defined(__GNUC__) || defined(__clang__)
#define AMPED_PREFETCH(addr) __builtin_prefetch(addr)
// The tile bodies are written as lambdas; with hundreds of instantiations
// in this file GCC's unit-growth limit otherwise leaves some of them
// (the element product of the 4-input unrolls) out of line, which costs
// the kernel its register-resident accumulation.
#define AMPED_INLINE __attribute__((always_inline))
#else
#define AMPED_PREFETCH(addr) ((void)0)
#define AMPED_INLINE
#endif

namespace {

// Elements looked ahead for factor-row prefetches. The gathers are the
// kernel's only irregular accesses; fetching every input row this many
// elements early hides most of the L2/L3 latency they would otherwise
// serialise on (16 measured best on rank-32 Amazon, Patents and Twitch
// stand-ins; 8 left misses exposed).
constexpr nnz_t kPrefetchDistance = 16;

// GCC vector-extension pieces of a tile row. Each value is one register on
// AVX-512 hardware (zmm/ymm/xmm); narrower ISAs split the 64-byte piece.
typedef value_t VecZ __attribute__((vector_size(64)));
typedef value_t VecY __attribute__((vector_size(32)));
typedef value_t VecX __attribute__((vector_size(16)));

template <typename V>
inline V load(const value_t* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Every lane set to v exactly (0 + v would turn -0.0 into +0.0).
template <typename V>
inline V broadcast(value_t v) {
  V out;
  for (std::size_t i = 0; i < sizeof(V) / sizeof(value_t); ++i) out[i] = v;
  return out;
}

// p[0..lanes) += v, operands in the generic kernel's order.
template <typename V>
inline void add_into(value_t* p, V v) {
  const V sum = load<V>(p) + v;
  std::memcpy(p, &sum, sizeof sum);
}

// kW columns held as local values: 64-byte pieces, then one 32-, one
// 16-byte and up to three scalar pieces for the tail. Every member is
// indexed by compile-time constants only, so the optimiser keeps the
// whole slice in registers instead of a stack array.
template <std::size_t kW>
struct Slice {
  static constexpr std::size_t kZLanes = sizeof(VecZ) / sizeof(value_t);
  static constexpr std::size_t kYLanes = sizeof(VecY) / sizeof(value_t);
  static constexpr std::size_t kXLanes = sizeof(VecX) / sizeof(value_t);
  static constexpr std::size_t kZ = kW / kZLanes;
  static constexpr bool kY = kW % kZLanes >= kYLanes;
  static constexpr bool kX = kW % kYLanes >= kXLanes;
  static constexpr std::size_t kS = kW % kXLanes;
  static constexpr std::size_t kYAt = kZ * kZLanes;
  static constexpr std::size_t kXAt = kYAt + (kY ? kYLanes : 0);
  static constexpr std::size_t kSAt = kXAt + (kX ? kXLanes : 0);

  VecZ z[kZ > 0 ? kZ : 1];
  VecY y;
  VecX x;
  value_t s[kS > 0 ? kS : 1];

  static Slice splat(value_t v) {
    Slice out;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kZ; ++i) out.z[i] = broadcast<VecZ>(v);
    if constexpr (kY) out.y = broadcast<VecY>(v);
    if constexpr (kX) out.x = broadcast<VecX>(v);
    for (std::size_t i = 0; i < kS; ++i) out.s[i] = v;
    return out;
  }

  // v * row[0..kW), the first factor of the element's product chain.
  static Slice scaled(value_t v, const value_t* __restrict row) {
    Slice out;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kZ; ++i) {
      out.z[i] = v * load<VecZ>(row + i * kZLanes);
    }
    if constexpr (kY) out.y = v * load<VecY>(row + kYAt);
    if constexpr (kX) out.x = v * load<VecX>(row + kXAt);
    for (std::size_t i = 0; i < kS; ++i) out.s[i] = v * row[kSAt + i];
    return out;
  }

  void mul(const value_t* __restrict row) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kZ; ++i) z[i] *= load<VecZ>(row + i * kZLanes);
    if constexpr (kY) y *= load<VecY>(row + kYAt);
    if constexpr (kX) x *= load<VecX>(row + kXAt);
    for (std::size_t i = 0; i < kS; ++i) s[i] *= row[kSAt + i];
  }

  void add(const Slice& o) {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kZ; ++i) z[i] += o.z[i];
    if constexpr (kY) y += o.y;
    if constexpr (kX) x += o.x;
    for (std::size_t i = 0; i < kS; ++i) s[i] += o.s[i];
  }

  // out[0..kW) += this: the once-per-run output-row update.
  void add_to(value_t* __restrict out) const {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kZ; ++i) add_into(out + i * kZLanes, z[i]);
    if constexpr (kY) add_into(out + kYAt, y);
    if constexpr (kX) add_into(out + kXAt, x);
    for (std::size_t i = 0; i < kS; ++i) out[kSAt + i] += s[i];
  }
};

// Adds run [from, to) to the ISP windows it overlaps: +1 output_runs and
// the clipped length into max_run of each. `isp` is the window the run
// starts in and `isp_end` that window's (block-clipped) end; both advance
// past every window the run reaches the end of, so the next run starts in
// the cursor's window and no run costs a division.
inline void count_isp_run(sim::EcBlockStats*& isp, nnz_t& isp_end,
                          nnz_t isp_size, nnz_t from, nnz_t to, nnz_t end) {
  for (;;) {
    ++isp->output_runs;
    if (to < isp_end) {
      isp->max_run = std::max(isp->max_run, to - from);
      return;
    }
    isp->max_run = std::max(isp->max_run, isp_end - from);
    from = isp_end;
    ++isp;
    isp_end += std::min(isp_size, end - isp_end);
    if (from == to) return;
  }
}

// One column-tile pass of the EC kernel: columns [col, col+kW) of every
// factor and output row, over elements [begin, end).
//
//  - kW is the compile-time tile width: every Slice operation fully
//    unrolls into vector-register arithmetic.
//  - kInputsC is the compile-time input-mode count (1..4 for 2- to 5-mode
//    tensors); 0 is the runtime-count class. It hands a 4-input (5-mode)
//    block to the 4-input unroll once per block, so the mode class and
//    cache key stay as they are, and runs every other count (1-mode,
//    >=6-mode) through the runtime input loop.
//  - kPacked binds stride == kW and col == 0: the single-tile form menu
//    ranks take, where the row stride is a compile-time constant.
//
// Runs are the outer loop and a run's elements the inner loop. A run's
// accumulator is a register-resident Slice seeded from the run's first
// product — as 0 + prod for the block's first run, exactly the generic
// kernel's zero-initialised accumulator — and added to its output row
// once, when the run ends. The stats tile also hands each finished run to
// the ISP cursor when the caller asked for a split (one null test per run
// otherwise).
//
// The per-column arithmetic — prod = v * row0[c], then *= row1[c],
// *= row2[c], ... in mode order, accumulated in element order with one
// output-row add per run — is exactly the generic kernel's sequence for
// that column, so a pass is bit-identical to the matching column slice of
// the single-pass kernel no matter how the rank is tiled. That holds only
// without FP contraction (a fused acc += prod * row rounds once, not
// twice), which src/CMakeLists.txt turns off for this file.
template <std::size_t kW, std::size_t kInputsC, bool kPacked>
void ec_tile(const index_t* __restrict out_idx,
             const value_t* __restrict vals,
             const EcInputMode* __restrict inputs, std::size_t num_inputs,
             std::size_t rank, std::size_t col, nnz_t begin, nnz_t end,
             value_t* __restrict out_data, sim::EcBlockStats* stats,
             const IspSplit* split) {
  if constexpr (kInputsC == 0) {
    if (num_inputs == 4) {
      ec_tile<kW, 4, kPacked>(out_idx, vals, inputs, num_inputs, rank, col,
                              begin, end, out_data, stats, split);
      return;
    }
  }
  using S = Slice<kW>;
  const std::size_t stride = kPacked ? kW : rank;
  const std::size_t col_off = kPacked ? 0 : col;
  constexpr std::size_t kMaxInputs = kInputsC > 0 ? kInputsC : kMaxModes;
  const std::size_t count = kInputsC > 0 ? kInputsC : num_inputs;

  const index_t* idx[kMaxInputs] = {};
  const value_t* fac[kMaxInputs] = {};
  for (std::size_t w = 0; w < count; ++w) {
    idx[w] = inputs[w].idx;
    fac[w] = inputs[w].fac + col_off;
  }
  auto row = [&](std::size_t w, nnz_t n) AMPED_INLINE {
    return fac[w] + static_cast<std::size_t>(idx[w][n]) * stride;
  };

  // Product of element n's factor rows, in mode order; also prefetches
  // the rows element n + kPrefetchDistance will read. Narrow tiles stay
  // cache-resident and skip the prefetch at compile time.
  auto product = [&](nnz_t n) AMPED_INLINE {
    if constexpr (kW >= 16) {
      if (n + kPrefetchDistance < end) {
#pragma GCC unroll 4
        for (std::size_t w = 0; w < count; ++w) {
          const value_t* next = row(w, n + kPrefetchDistance);
          for (std::size_t b = 0; b < kW; b += S::kZLanes) {
            AMPED_PREFETCH(next + b);
          }
        }
      }
    }
    const value_t v = vals[n];
    if constexpr (kInputsC == 0) {
      if (count == 0) return S::splat(v);
    }
    S p = S::scaled(v, row(0, n));
#pragma GCC unroll 4
    for (std::size_t w = 1; w < count; ++w) p.mul(row(w, n));
    return p;
  };

  sim::EcBlockStats* isp = nullptr;
  nnz_t isp_size = 0;
  nnz_t isp_end = 0;
  if (split != nullptr) {
    isp = split->blocks.data();
    isp_size = split->size;
    isp_end = begin + std::min(isp_size, end - begin);
  }

  nnz_t n = begin;
  nnz_t output_runs = 0;
  nnz_t max_run = 0;
  S acc = S::splat(value_t{0});
  acc.add(product(n));
  for (;;) {
    const index_t i = out_idx[n];
    const nnz_t run_begin = n;
    for (++n; n < end && out_idx[n] == i; ++n) acc.add(product(n));
    acc.add_to(out_data + static_cast<std::size_t>(i) * stride + col_off);
    ++output_runs;
    max_run = std::max(max_run, n - run_begin);
    if (isp != nullptr) {
      count_isp_run(isp, isp_end, isp_size, run_begin, n, end);
    }
    if (n == end) break;
    acc = product(n);
  }

  // Run structure is a property of the element order, identical for every
  // tile — one designated tile per program reports it.
  if (stats != nullptr) {
    stats->nnz = end - begin;
    stats->output_runs = output_runs;
    stats->max_run = max_run;
  }
}

// ec_tile over a record source (EcRecordSource): the same loops, products
// and run accumulation, with every coordinate decoded from the record's key
// in registers. kRec is the record width (8 or 16 bytes), so the key load
// and the value offset are compile-time.
//
// A coordinate is its segment's high part | the key's low part, and the
// two hold disjoint bits, so it is also their sum. Entering a segment
// therefore moves each input's factor base by its high part times the
// stride, and keeps the output's high part; per coordinate the decode is
// then (key >> shift) & mask, as for a key that fits the record. Inside a
// segment a run compares only the key's bits of the output's low part. At
// a segment edge (checked once per run) the run compares the full output
// index and goes on if it does not change, so the accumulation is the one
// the decoded COO block would give.
template <std::size_t kW, std::size_t kInputsC, bool kPacked,
          std::size_t kRec>
void ec_tile_records(const EcRecordSource& src,
                     const value_t* const* __restrict facs,
                     std::size_t num_inputs, std::size_t rank,
                     std::size_t col, nnz_t begin, nnz_t end,
                     value_t* __restrict out_data, sim::EcBlockStats* stats,
                     const IspSplit* split) {
  static_assert(kRec == 8 || kRec == 16);
  if constexpr (kInputsC == 0) {
    if (num_inputs == 4) {
      ec_tile_records<kW, 4, kPacked, kRec>(src, facs, num_inputs, rank, col,
                                            begin, end, out_data, stats,
                                            split);
      return;
    }
  }
  using S = Slice<kW>;
  using Key = std::conditional_t<kRec == 8, std::uint32_t, std::uint64_t>;
  const std::size_t stride = kPacked ? kW : rank;
  const std::size_t col_off = kPacked ? 0 : col;
  constexpr std::size_t kMaxInputs = kInputsC > 0 ? kInputsC : kMaxModes;
  const std::size_t count = kInputsC > 0 ? kInputsC : num_inputs;

  unsigned shift[kMaxInputs] = {};
  Key mask[kMaxInputs] = {};
  for (std::size_t w = 0; w < count; ++w) {
    shift[w] = src.shift[w + 1];
    mask[w] = static_cast<Key>(src.mask[w + 1]);
  }
  // The output's low part is (key >> out_shift) & out_mask, in out_bits of
  // the key. Inside a segment a run goes on while a record's key matches
  // the run's first key in out_bits; a field wholly in the high bits has
  // none, and every record of a segment goes on.
  const unsigned out_shift = src.shift[0];
  const auto out_mask = static_cast<Key>(src.mask[0]);
  const Key out_bits = out_mask << out_shift;
  auto out_low = [&](Key k) AMPED_INLINE {
    return static_cast<index_t>((k >> out_shift) & out_mask);
  };
  // Records [begin, end) at rec[0], rec[kRec], ...
  const std::byte* const rec =
      src.data + static_cast<std::size_t>(begin - src.base) * kRec;
  auto key = [&](nnz_t n) AMPED_INLINE {
    Key k = 0;
    std::memcpy(&k, rec + static_cast<std::size_t>(n - begin) * kRec,
                sizeof k);
    return k;
  };

  // The current segment: each input's factor base, the output's high part,
  // and where the next segment begins (or the block end).
  const value_t* fac[kMaxInputs] = {};
  index_t out_hi = 0;
  const HighBitsSegment* seg = nullptr;
  const HighBitsSegment* const table_end = src.high.data() + src.high.size();
  nnz_t seg_end = end;
  auto enter_segment = [&](const HighBitsSegment* s) {
    seg = s;
    out_hi = src.layout->high_part(s->high, src.mode[0]);
    for (std::size_t w = 0; w < count; ++w) {
      const index_t hi = src.layout->high_part(s->high, src.mode[w + 1]);
      fac[w] = facs[w] + col_off + static_cast<std::size_t>(hi) * stride;
    }
    seg_end = s + 1 < table_end ? std::min(end, s[1].first) : end;
  };
  enter_segment(std::upper_bound(src.high.data(), table_end, begin,
                                 [](nnz_t pos, const HighBitsSegment& h) {
                                   return pos < h.first;
                                 }) -
                1);
  auto row = [&](std::size_t w, Key k) AMPED_INLINE {
    return fac[w] +
           static_cast<std::size_t>((k >> shift[w]) & mask[w]) * stride;
  };

  // No factor-row look-ahead here: decoding element n + 16's key for a
  // prefetch costs as much as the prefetch saves at the stand-in scales
  // (rank 32, 4-vCPU AVX-512 host: the Patents and Twitch mode copies ran
  // 1.2-1.3x slower with it, Amazon within noise).
  auto product = [&](nnz_t n) AMPED_INLINE {
    value_t v = 0;
    std::memcpy(&v,
                rec + static_cast<std::size_t>(n - begin) * kRec + kRec / 2,
                sizeof v);
    if constexpr (kInputsC == 0) {
      if (count == 0) return S::splat(v);
    }
    const Key k = key(n);
    S p = S::scaled(v, row(0, k));
#pragma GCC unroll 4
    for (std::size_t w = 1; w < count; ++w) p.mul(row(w, k));
    return p;
  };

  sim::EcBlockStats* isp = nullptr;
  nnz_t isp_size = 0;
  nnz_t isp_end = 0;
  if (split != nullptr) {
    isp = split->blocks.data();
    isp_size = split->size;
    isp_end = begin + std::min(isp_size, end - begin);
  }

  nnz_t n = begin;
  nnz_t output_runs = 0;
  nnz_t max_run = 0;
  S acc = S::splat(value_t{0});
  acc.add(product(n));
  for (;;) {
    Key first = key(n);
    const index_t i = out_hi + out_low(first);
    const nnz_t run_begin = n;
    for (;;) {
      for (++n; n < seg_end && ((key(n) ^ first) & out_bits) == 0; ++n) {
        acc.add(product(n));
      }
      if (n != seg_end || n == end) break;
      enter_segment(seg + 1);
      first = key(n);
      if (out_hi + out_low(first) != i) break;
      acc.add(product(n));
    }
    acc.add_to(out_data + static_cast<std::size_t>(i) * stride + col_off);
    ++output_runs;
    max_run = std::max(max_run, n - run_begin);
    if (isp != nullptr) {
      count_isp_run(isp, isp_end, isp_size, run_begin, n, end);
    }
    if (n == end) break;
    acc = product(n);
  }

  if (stats != nullptr) {
    stats->nnz = end - begin;
    stats->output_runs = output_runs;
    stats->max_run = max_run;
  }
}

// Every source's pass for one tile width and input count.
struct TilePair {
  EcTileFn fn;
  std::array<EcRecordTileFn, kRecordKinds> record_fns;
};

template <std::size_t kW, std::size_t kInputsC, bool kPacked>
TilePair tile_pair() {
  // In RecordKind order.
  return {&ec_tile<kW, kInputsC, kPacked>,
          {{&ec_tile_records<kW, kInputsC, kPacked, 8>,
            &ec_tile_records<kW, kInputsC, kPacked, 16>}}};
}

template <std::size_t kW, bool kPacked>
TilePair pick_inputs(std::uint8_t mode_class) {
  switch (mode_class) {
    case 2:
      return tile_pair<kW, 1, kPacked>();
    case 3:
      return tile_pair<kW, 2, kPacked>();
    case 4:
      return tile_pair<kW, 3, kPacked>();
    default:
      return tile_pair<kW, 0, kPacked>();
  }
}

// The instantiated width set is exactly what sim::ec_tile_widths emits:
// 64, every multiple of 4 below it (so any 4..63 tail is one pass), and
// 1..3 for the final columns. Any other width is a decomposition this
// file was not updated for, and running it as a narrower pass would
// silently skip columns.
template <bool kPacked>
TilePair pick_tile(std::uint32_t width, std::uint8_t mode_class) {
  switch (width) {
    case 64:
      return pick_inputs<64, kPacked>(mode_class);
    case 60:
      return pick_inputs<60, kPacked>(mode_class);
    case 56:
      return pick_inputs<56, kPacked>(mode_class);
    case 52:
      return pick_inputs<52, kPacked>(mode_class);
    case 48:
      return pick_inputs<48, kPacked>(mode_class);
    case 44:
      return pick_inputs<44, kPacked>(mode_class);
    case 40:
      return pick_inputs<40, kPacked>(mode_class);
    case 36:
      return pick_inputs<36, kPacked>(mode_class);
    case 32:
      return pick_inputs<32, kPacked>(mode_class);
    case 28:
      return pick_inputs<28, kPacked>(mode_class);
    case 24:
      return pick_inputs<24, kPacked>(mode_class);
    case 20:
      return pick_inputs<20, kPacked>(mode_class);
    case 16:
      return pick_inputs<16, kPacked>(mode_class);
    case 12:
      return pick_inputs<12, kPacked>(mode_class);
    case 8:
      return pick_inputs<8, kPacked>(mode_class);
    case 4:
      return pick_inputs<4, kPacked>(mode_class);
    case 3:
      return pick_inputs<3, kPacked>(mode_class);
    case 2:
      return pick_inputs<2, kPacked>(mode_class);
    case 1:
      return pick_inputs<1, kPacked>(mode_class);
    default:
      throw std::logic_error("KernelCache: no EC tile instantiated for width " +
                             std::to_string(width));
  }
}

}  // namespace

sim::EcBlockStats TileProgram::run(const index_t* out_idx,
                                   const value_t* vals,
                                   const EcInputMode* inputs,
                                   std::size_t num_inputs, nnz_t begin,
                                   nnz_t end, value_t* out_data,
                                   const IspSplit* split) const {
  assert(begin < end);
  sim::EcBlockStats stats;
  bool first = true;
  for (const EcTile& tile : tiles_) {
    tile.fn(out_idx, vals, inputs, num_inputs, shape_.rank, tile.col, begin,
            end, out_data, first ? &stats : nullptr, first ? split : nullptr);
    first = false;
  }
  stats.rank = shape_.rank;
  return stats;
}

sim::EcBlockStats TileProgram::run(const EcRecordSource& src,
                                   const value_t* const* fac,
                                   std::size_t num_inputs, nnz_t begin,
                                   nnz_t end, value_t* out_data,
                                   const IspSplit* split) const {
  assert(begin < end);
  sim::EcBlockStats stats;
  bool first = true;
  for (const EcTile& tile : tiles_) {
    tile.record_fns[src.kind](src, fac, num_inputs, shape_.rank, tile.col,
                              begin, end, out_data,
                              first ? &stats : nullptr,
                              first ? split : nullptr);
    first = false;
  }
  stats.rank = shape_.rank;
  return stats;
}

TileProgram KernelCache::build_program(const KernelShape& shape) {
  TileProgram program;
  program.shape_ = shape;
  const auto widths = sim::ec_tile_widths(shape.rank);
  // A single tile covers the whole row: bind the stride as a compile-time
  // constant too, which is byte-for-byte the pre-tiling full-width kernel.
  const bool packed = widths.size() == 1;
  std::uint32_t col = 0;
  for (const std::size_t w : widths) {
    EcTile tile;
    tile.col = col;
    tile.width = static_cast<std::uint32_t>(w);
    const TilePair fns = packed
                             ? pick_tile<true>(tile.width, shape.mode_class())
                             : pick_tile<false>(tile.width, shape.mode_class());
    tile.fn = fns.fn;
    tile.record_fns = fns.record_fns;
    program.tiles_.push_back(tile);
    col += tile.width;
  }
  assert(col == shape.rank);
  return program;
}

KernelCache& KernelCache::global() {
  // Leaked on purpose (same discipline as the metrics registry): program
  // references are resolved once per shard/plan and may be touched by
  // pool threads during process teardown.
  static KernelCache* instance = new KernelCache();
  return *instance;
}

const TileProgram& KernelCache::find_or_create(const KernelShape& shape) {
  static metrics::Counter& hits = metrics::counter("kernel_cache.hits");
  static metrics::Counter& misses = metrics::counter("kernel_cache.misses");
  static metrics::Counter& shapes = metrics::counter("kernel_cache.shapes");

  const std::size_t b = shape.hash() & (kBuckets - 1);
  for (const Node* n = buckets_[b].load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    if (n->program.shape() == shape) {
      hits.inc();
      return n->program;
    }
  }

  std::lock_guard lock(create_mutex_);
  // A racing creator may have published while we queued on the mutex.
  for (const Node* n = buckets_[b].load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    if (n->program.shape() == shape) {
      hits.inc();
      return n->program;
    }
  }
  Node* node = new Node();  // owned by the cache, never freed
  node->program = build_program(shape);
  node->next = buckets_[b].load(std::memory_order_relaxed);
  misses.inc();
  shapes.inc();
  // Release publishes the fully-built program (and, transitively, the
  // chain behind it) to lock-free readers.
  buckets_[b].store(node, std::memory_order_release);
  return node->program;
}

std::size_t KernelCache::size() const {
  std::size_t count = 0;
  for (const auto& bucket : buckets_) {
    for (const Node* n = bucket.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      ++count;
    }
  }
  return count;
}

}  // namespace amped
