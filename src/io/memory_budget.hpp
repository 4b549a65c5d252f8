// Host-memory budget accounting for the out-of-core storage engine.
//
// The paper's host-residency assumption (§4.4) — N sorted tensor copies
// live in CPU memory — breaks when the tensor is large enough that even
// *host* RAM cannot hold them. `HostMemoryBudget` is the accounting layer
// that lets the rest of the system notice: large allocations (AmpedTensor
// mode copies, shard stream buffers) are charged against a process-wide
// budget, and `AmpedTensor::build` switches to the spill-to-disk path when
// the resident footprint would not fit. A zero limit means "unlimited":
// charges are still tracked (so peak usage is always reportable) but never
// rejected.
//
// The limit comes from, in priority order: set_limit() (the
// `--memory-budget` CLI flag routes here) → the AMPED_MEMORY_BUDGET
// environment variable → unlimited. Sizes accept K/M/G/T suffixes
// ("512M", "2GiB", "1073741824"). A set but malformed AMPED_MEMORY_BUDGET
// throws std::invalid_argument on first use of the global budget.
//
// Tracked means *registered* allocations only — the mode copies and
// stream buffers that dominate at scale — not transient sort scratch or
// small metadata, which are bounded by what is already charged.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace amped::io {

// Parses "1024", "64K", "512M", "2G", "1T" (optionally followed by "B" or
// "iB", case-insensitive) into bytes. Throws std::runtime_error on
// malformed input.
std::uint64_t parse_byte_size(const std::string& text);

// "1.5 GiB"-style rendering for logs and example output.
std::string format_bytes(std::uint64_t bytes);

// AMPED_MEMORY_BUDGET in bytes; 0 (unlimited) when unset or empty. Throws
// std::invalid_argument naming the variable and its value when it does
// not parse as a size.
std::uint64_t memory_budget_from_env();

class HostMemoryBudget {
 public:
  // Process-wide budget; first use loads AMPED_MEMORY_BUDGET if set.
  static HostMemoryBudget& global();

  // 0 = unlimited. Overrides any environment-derived limit.
  void set_limit(std::uint64_t bytes);
  std::uint64_t limit() const;

  std::uint64_t in_use() const;
  std::uint64_t peak() const;
  // Bytes still chargeable; UINT64_MAX when unlimited.
  std::uint64_t remaining() const;
  void reset_peak();

  // Registers `bytes` of tracked allocation. Throws std::runtime_error
  // naming `what` when the charge would exceed a nonzero limit.
  void charge(std::uint64_t bytes, const char* what);
  void release(std::uint64_t bytes);

 private:
  HostMemoryBudget();

  mutable std::mutex mutex_;
  std::uint64_t limit_ = 0;
  std::uint64_t in_use_ = 0;
  std::uint64_t peak_ = 0;
};

// RAII charge against a budget: releases on destruction. Movable so it can
// live inside containers and be handed to pool tasks.
class BudgetReservation {
 public:
  BudgetReservation() = default;
  BudgetReservation(HostMemoryBudget& budget, std::uint64_t bytes,
                    const char* what);
  ~BudgetReservation();

  BudgetReservation(const BudgetReservation&) = delete;
  BudgetReservation& operator=(const BudgetReservation&) = delete;
  BudgetReservation(BudgetReservation&& other) noexcept;
  BudgetReservation& operator=(BudgetReservation&& other) noexcept;

  std::uint64_t bytes() const { return bytes_; }
  // Releases the charge early (idempotent).
  void reset();

 private:
  HostMemoryBudget* budget_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace amped::io
