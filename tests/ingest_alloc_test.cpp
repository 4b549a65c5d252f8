// Deterministic companion of the text-ingest memory cost: live heap bytes
// counted, not RSS, so the regression class "ingest holds the tensor more
// than once" fails the same way on any host.
//
// This binary replaces the global operator new/delete with a counter of
// live bytes, its high-water mark and the largest single allocation, over
// every thread (the parser allocates its columns on pool workers).
// read_tns_text writes each data line straight into the output tensor's
// columns, allocated once, so the high-water mark of a parse is the
// output's column bytes plus a small fixed slack. A parser that fills
// per-chunk buffers and then copies them into the output holds the data
// twice over and exceeds that bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "io/tns_ingest.hpp"

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::size_t> g_largest{0};

// Each block carries its size in a header that keeps malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void raise_to(std::atomic<std::size_t>& max, std::size_t v) {
  std::size_t seen = max.load();
  while (seen < v && !max.compare_exchange_weak(seen, v)) {
  }
}

}  // namespace

// malloc/free underneath, so GCC's new/delete pairing check does not apply.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  void* block = std::malloc(n + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = n;
  raise_to(g_peak, g_live.fetch_add(n) + n);
  raise_to(g_largest, n);
  return static_cast<char*>(block) + kHeader;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(block));
  std::free(block);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}
#pragma GCC diagnostic pop

namespace amped {
namespace {

// Heap the parser may hold beyond the output columns: the chunk table,
// pool bookkeeping and the dims vector.
constexpr std::size_t kSlackBytes = 16 << 10;

struct Measured {
  CooTensor tensor;
  std::size_t peak = 0;     // high-water mark of live bytes, over the start
  std::size_t largest = 0;  // largest single allocation
};

Measured measured_parse(const std::string& text, std::size_t chunks) {
  const std::size_t base = g_live.load();
  g_peak.store(base);
  g_largest.store(0);
  Measured m{io::read_tns_text(text, chunks)};
  m.peak = g_peak.load() - base;
  m.largest = g_largest.load();
  return m;
}

// A generated 3-mode text of `lines` data lines under a dims header.
std::string generated_text(std::size_t lines) {
  std::string text = "# dims: 5000 3000 700\n";
  text.reserve(lines * 24);
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (std::size_t n = 0; n < lines; ++n) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    text += std::to_string(x % 5000 + 1) + ' ' +
            std::to_string((x >> 16) % 3000 + 1) + ' ' +
            std::to_string((x >> 32) % 700 + 1) + ' ' +
            std::to_string((x >> 48) % 1000) + ".5\n";
  }
  return text;
}

TEST(IngestAllocations, PeakIsTheOutputColumns) {
  constexpr std::size_t kLines = 1'000'000;
  const std::string text = generated_text(kLines);
  measured_parse(generated_text(1000), 4);  // warm the pool and metrics
  const Measured m = measured_parse(text, 4);
  ASSERT_EQ(m.tensor.nnz(), kLines);
  const std::size_t column_bytes =
      kLines * (m.tensor.num_modes() * sizeof(index_t) + sizeof(value_t));
  std::printf("ingest of %zu lines: peak %zu live bytes over %zu column "
              "bytes, largest allocation %zu\n",
              kLines, m.peak, column_bytes, m.largest);
  EXPECT_LE(m.peak, column_bytes + kSlackBytes);
  EXPECT_LE(m.largest, kLines * std::max(sizeof(index_t), sizeof(value_t)));
}

TEST(IngestAllocations, BlankLinesReserveAtMostTwiceTheText) {
  // Each blank line could be a data line as far as the line count goes;
  // the byte cap keeps the reservation to about twice the text.
  const std::string text = "1 2 3 4.5\n" + std::string(1'000'000, '\n');
  const Measured m = measured_parse(text, 4);
  std::printf("1M blank lines: peak %zu live bytes for %zu text bytes\n",
              m.peak, text.size());
  ASSERT_EQ(m.tensor.nnz(), 1u);
  EXPECT_EQ(m.tensor.indices(2)[0], 2u);
  EXPECT_EQ(m.tensor.values()[0], 4.5f);
  EXPECT_LE(m.peak, 2 * text.size() + kSlackBytes);
}

}  // namespace
}  // namespace amped
