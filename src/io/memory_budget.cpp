#include "io/memory_budget.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/metrics.hpp"

namespace amped::io {

namespace {

// Budget observables: the gauges track the live/high-water byte counts
// (mirrors of in_use_/peak_ for the metrics snapshot), the counter every
// charge the limit rejected. Updated inside the budget's own lock, which
// is fine — the registry never locks back into the budget.
metrics::Gauge& in_use_gauge() {
  static metrics::Gauge& g = metrics::gauge("budget.in_use_bytes");
  return g;
}
metrics::Gauge& peak_gauge() {
  static metrics::Gauge& g = metrics::gauge("budget.peak_bytes");
  return g;
}
metrics::Counter& rejections_counter() {
  static metrics::Counter& c = metrics::counter("budget.rejections");
  return c;
}

}  // namespace

std::uint64_t parse_byte_size(const std::string& text) {
  if (text.empty()) {
    throw std::runtime_error("parse_byte_size: empty size string");
  }
  if (!std::isdigit(static_cast<unsigned char>(text.front()))) {
    // stoull would silently wrap "-512" to a huge value; sizes are
    // unsigned digits only.
    throw std::runtime_error("parse_byte_size: not a size: '" + text + "'");
  }
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &pos, 10);
  } catch (const std::exception&) {
    throw std::runtime_error("parse_byte_size: not a size: '" + text + "'");
  }
  // Optional suffix: K/M/G/T, optionally followed by "B" or "iB".
  std::uint64_t multiplier = 1;
  if (pos < text.size()) {
    switch (std::toupper(static_cast<unsigned char>(text[pos]))) {
      case 'K': multiplier = 1ull << 10; ++pos; break;
      case 'M': multiplier = 1ull << 20; ++pos; break;
      case 'G': multiplier = 1ull << 30; ++pos; break;
      case 'T': multiplier = 1ull << 40; ++pos; break;
      case 'B': break;  // bare "B" handled below
      default:
        throw std::runtime_error("parse_byte_size: bad suffix in '" + text +
                                 "'");
    }
    if (pos < text.size() &&
        std::tolower(static_cast<unsigned char>(text[pos])) == 'i') {
      ++pos;
    }
    if (pos < text.size() &&
        std::toupper(static_cast<unsigned char>(text[pos])) == 'B') {
      ++pos;
    }
    if (pos != text.size()) {
      throw std::runtime_error("parse_byte_size: bad suffix in '" + text +
                               "'");
    }
  }
  if (multiplier != 1 && value > UINT64_MAX / multiplier) {
    throw std::runtime_error("parse_byte_size: size overflows 64 bits: '" +
                             text + "'");
  }
  return static_cast<std::uint64_t>(value) * multiplier;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < std::size(kUnits)) {
    v /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os.precision(unit == 0 ? 0 : 1);
  os << std::fixed << v << ' ' << kUnits[unit];
  return os.str();
}

std::uint64_t memory_budget_from_env() {
  const char* env = std::getenv("AMPED_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  try {
    return parse_byte_size(env);
  } catch (const std::exception& e) {
    throw std::invalid_argument("AMPED_MEMORY_BUDGET=\"" + std::string(env) +
                                "\": " + e.what());
  }
}

HostMemoryBudget::HostMemoryBudget() : limit_(memory_budget_from_env()) {}

HostMemoryBudget& HostMemoryBudget::global() {
  static HostMemoryBudget budget;
  return budget;
}

void HostMemoryBudget::set_limit(std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  limit_ = bytes;
}

std::uint64_t HostMemoryBudget::limit() const {
  std::lock_guard lock(mutex_);
  return limit_;
}

std::uint64_t HostMemoryBudget::in_use() const {
  std::lock_guard lock(mutex_);
  return in_use_;
}

std::uint64_t HostMemoryBudget::peak() const {
  std::lock_guard lock(mutex_);
  return peak_;
}

std::uint64_t HostMemoryBudget::remaining() const {
  std::lock_guard lock(mutex_);
  if (limit_ == 0) return UINT64_MAX;
  return limit_ > in_use_ ? limit_ - in_use_ : 0;
}

void HostMemoryBudget::reset_peak() {
  std::lock_guard lock(mutex_);
  peak_ = in_use_;
}

void HostMemoryBudget::charge(std::uint64_t bytes, const char* what) {
  std::lock_guard lock(mutex_);
  if (limit_ != 0 && in_use_ + bytes > limit_) {
    rejections_counter().inc();
    throw std::runtime_error(
        std::string("memory budget exceeded: ") + what + " needs " +
        format_bytes(bytes) + " but only " +
        format_bytes(limit_ > in_use_ ? limit_ - in_use_ : 0) + " of " +
        format_bytes(limit_) + " remain");
  }
  in_use_ += bytes;
  if (in_use_ > peak_) peak_ = in_use_;
  in_use_gauge().set(static_cast<double>(in_use_));
  peak_gauge().set_max(static_cast<double>(peak_));
}

void HostMemoryBudget::release(std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  in_use_ = in_use_ > bytes ? in_use_ - bytes : 0;
  in_use_gauge().set(static_cast<double>(in_use_));
}

BudgetReservation::BudgetReservation(HostMemoryBudget& budget,
                                     std::uint64_t bytes, const char* what)
    : budget_(&budget), bytes_(bytes) {
  budget.charge(bytes, what);  // throws before taking ownership
}

BudgetReservation::~BudgetReservation() { reset(); }

BudgetReservation::BudgetReservation(BudgetReservation&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

BudgetReservation& BudgetReservation::operator=(
    BudgetReservation&& other) noexcept {
  if (this != &other) {
    reset();
    budget_ = other.budget_;
    bytes_ = other.bytes_;
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void BudgetReservation::reset() {
  if (budget_ != nullptr && bytes_ != 0) {
    budget_->release(bytes_);
  }
  budget_ = nullptr;
  bytes_ = 0;
}

}  // namespace amped::io
