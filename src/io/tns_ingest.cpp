#include "io/tns_ingest.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/mapped_file.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace amped::io {

namespace {

constexpr std::size_t kMinChunkBytes = 1u << 16;

// Ingest observables: how many chunks the parallel parser cut, how many
// bytes they covered, and the per-chunk parse latency distribution.
metrics::Counter& ingest_chunks() {
  static metrics::Counter& c = metrics::counter("ingest.chunks");
  return c;
}
metrics::Counter& ingest_bytes() {
  static metrics::Counter& c = metrics::counter("ingest.bytes");
  return c;
}
metrics::Histogram& ingest_chunk_seconds() {
  static metrics::Histogram& h = metrics::histogram("ingest.chunk_seconds");
  return h;
}

// Parse failure at a byte offset; converted to a 1-based line number once,
// at the top level (counting newlines per line during the parallel scan
// would serialise it).
struct TnsParseAt {
  std::size_t offset;
  std::string what;
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tns_io: " + what);
}

[[noreturn]] void fail_at(std::string_view text, std::size_t offset,
                          const std::string& what) {
  const auto line =
      1 + std::count(text.begin(),
                     text.begin() + static_cast<std::ptrdiff_t>(offset),
                     '\n');
  fail(what + " (line " + std::to_string(line) + ")");
}

// isspace() in the C locale; '\n' never occurs inside a line.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

// First whitespace at or after p (the end of the field starting at p).
const char* field_end(const char* p, const char* end) {
  while (p != end && !is_space(*p)) ++p;
  return p;
}

// Number of whitespace-separated fields of a trimmed line.
std::size_t count_fields(std::string_view line) {
  std::size_t fields = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p != end) {
    ++fields;
    p = field_end(p, end);
    while (p != end && is_space(*p)) ++p;
  }
  return fields;
}

// Reads the run of decimal digits at p into m (m = m * 10^n + run, which
// wraps past 19 digits; callers count them). Returns the end of the run.
const char* scan_digits(const char* p, const char* end, std::uint64_t& m) {
  for (; p != end && is_digit(*p); ++p) {
    m = 10 * m + static_cast<unsigned>(*p - '0');
  }
  return p;
}

constexpr std::uint64_t kMaxIndex = std::numeric_limits<index_t>::max();

// How a data line parsed: kOk, or the first rule it breaks in field order.
enum class LineStatus {
  kOk,
  kFieldCount,  // more or fewer fields than the mode count plus one
  kIndexBelowOne,
  kIndexNotInteger,
  kIndexTooLarge,
  kValueNotNumber,
  kValueOutOfRange,
};

// Scans the index field at p: an optional sign and decimal digits, ended by
// whitespace or `end`. On kOk `out` is the (1-based) index; on every
// status but kIndexNotInteger p moves past the field.
LineStatus scan_index(const char*& p, const char* end, std::uint64_t& out) {
  const char* q = p;
  const bool negative = *q == '-';
  if (negative || *q == '+') ++q;
  const char* const digits = q;
  while (q != end && *q == '0') ++q;
  const char* const significant = q;
  std::uint64_t v = 0;
  q = scan_digits(q, end, v);
  if (q == digits || (q != end && !is_space(*q))) {
    return LineStatus::kIndexNotInteger;
  }
  p = q;
  out = v;
  if (negative) return LineStatus::kIndexBelowOne;
  if (q - significant > 10) return LineStatus::kIndexTooLarge;
  if (v == 0) return LineStatus::kIndexBelowOne;
  return v > kMaxIndex ? LineStatus::kIndexTooLarge : LineStatus::kOk;
}

// Exact powers of ten: every 10^k with k <= 22 is a double.
constexpr std::array<double, 23> kPow10 = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// Clinger's fast path for the value field at p: [+-]digits[.[digits]],
// ended by whitespace or the end of the line, whose digits form an integer
// m <= 2^53 with k <= 22 of them after the point. m and 10^k are then
// exact doubles and m / 10^k is one correctly rounded division: the same
// double std::from_chars produces. Returns the end of the field, or
// nullptr (and leaves `out` alone) when the field is outside the form.
const char* scan_decimal_fast(const char* p, const char* end, double& out) {
  const bool negative = *p == '-';
  if (negative || *p == '+') ++p;
  std::uint64_t m = 0;
  const char* q = scan_digits(p, end, m);
  const auto int_digits = q - p;
  std::ptrdiff_t frac_digits = 0;
  if (q != end && *q == '.') {
    const char* const frac = q + 1;
    q = scan_digits(frac, end, m);
    frac_digits = q - frac;
  }
  if (int_digits == 0 || (q != end && !is_space(*q)) ||
      int_digits + frac_digits > 19 || frac_digits > 22 ||
      m > (std::uint64_t{1} << 53)) {
    return nullptr;
  }
  const double v = static_cast<double>(m) /
                   kPow10[static_cast<std::size_t>(frac_digits)];
  out = negative ? -v : v;
  return q;
}

// std::from_chars over the whole field [p, last), accepting an explicit
// leading '+' as istream extraction does.
std::from_chars_result value_from_chars(const char* p, const char* last,
                                        double& out) {
  if (*p == '+' && p + 1 != last && p[1] != '-' && p[1] != '+') ++p;
  return std::from_chars(p, last, out);
}

// Scans the value field at p: the fast path, else std::from_chars, which
// must parse the whole field and stay in range. On kOk p moves past the
// field.
LineStatus scan_value(const char*& p, const char* end, double& out) {
  if (const char* q = scan_decimal_fast(p, end, out)) {
    p = q;
    return LineStatus::kOk;
  }
  const char* const last = field_end(p, end);
  const auto [ptr, ec] = value_from_chars(p, last, out);
  if (ec == std::errc::result_out_of_range) {
    return LineStatus::kValueOutOfRange;
  }
  if (ec != std::errc() || ptr != last) return LineStatus::kValueNotNumber;
  p = last;
  return LineStatus::kOk;
}

// Parses a trimmed data line of exactly `modes` indices in [1, 2^32 - 1]
// and one value. On anything but kOk `idx`/`value` are unspecified.
LineStatus parse_line(std::string_view line, std::size_t modes, index_t* idx,
                      double& value) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t m = 0; m < modes; ++m) {
    std::uint64_t v = 0;
    if (const LineStatus s = scan_index(p, end, v); s != LineStatus::kOk) {
      return s;
    }
    idx[m] = static_cast<index_t>(v);
    while (p != end && is_space(*p)) ++p;
    if (p == end) return LineStatus::kFieldCount;
  }
  if (const LineStatus s = scan_value(p, end, value); s != LineStatus::kOk) {
    return s;
  }
  return p == end ? LineStatus::kOk : LineStatus::kFieldCount;
}

// The message for a line parse_line rejected with `status`. A wrong field
// count is reported first, whichever field the scan stopped at.
std::string line_error(std::string_view line, std::size_t modes,
                       LineStatus status) {
  const std::string text(line);
  const std::size_t fields = count_fields(line);
  if (fields < 2) return "line with fewer than 2 fields: " + text;
  if (fields != modes + 1) return "inconsistent mode count on line: " + text;
  switch (status) {
    case LineStatus::kIndexBelowOne:
      return "index < 1 (FROSTT is 1-based): " + text;
    case LineStatus::kIndexNotInteger:
      return "index is not a decimal integer: " + text;
    case LineStatus::kIndexTooLarge:
      return "index > " + std::to_string(kMaxIndex) + ": " + text;
    case LineStatus::kValueOutOfRange:
      return "value out of range: " + text;
    case LineStatus::kValueNotNumber:
      return "value is not a number: " + text;
    case LineStatus::kOk:
    case LineStatus::kFieldCount:  // caught by the count above
      break;
  }
  return "malformed line: " + text;
}

struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Cuts [0, text.size()) into at most `max_chunks` ranges whose boundaries
// fall just after a newline.
std::vector<Chunk> split_chunks(std::string_view text,
                                std::size_t max_chunks) {
  std::vector<Chunk> chunks;
  if (text.empty()) return chunks;
  const std::size_t approx = text.size() / max_chunks;
  std::size_t start = 0;
  for (std::size_t c = 1; c < max_chunks && start < text.size(); ++c) {
    std::size_t target = c * approx;
    if (target <= start) continue;
    const std::size_t nl = text.find('\n', target);
    if (nl == std::string_view::npos || nl + 1 >= text.size()) break;
    chunks.push_back({start, nl + 1});
    start = nl + 1;
  }
  chunks.push_back({start, text.size()});
  return chunks;
}

// The values of a document's (or a chunk's) `# dims:` headers in order,
// and the offset of the first header line that gave any.
struct DimsHeader {
  std::vector<index_t> dims;
  std::size_t offset = 0;
};

// The trimmed line starting at `pos`, ended by a newline or `end`; moves
// `pos` past the newline.
std::string_view next_line(std::string_view text, std::size_t& pos,
                           std::size_t end) {
  std::size_t eol = text.find('\n', pos);
  if (eol == std::string_view::npos || eol >= end) eol = end;
  const std::string_view line = trim(text.substr(pos, eol - pos));
  pos = eol + 1;
  return line;
}

// True for a `#` comment line. The values of an optional "# dims: a b c"
// header are appended to `header`.
bool read_comment(std::string_view line, std::size_t offset,
                  DimsHeader& header) {
  if (line.front() != '#') return false;
  const auto dims_pos = line.find("dims:");
  if (dims_pos == std::string_view::npos) return true;
  if (header.dims.empty()) header.offset = offset;
  const char* p = line.data() + dims_pos + 5;
  const char* const end = line.data() + line.size();
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) return true;
    const char* const last = field_end(p, end);
    const char* q = p;
    if (*q == '+' && q + 1 != last) ++q;
    index_t d = 0;
    const auto [ptr, ec] = std::from_chars(q, last, d);
    if (ec != std::errc() || ptr != last) {
      throw TnsParseAt{offset,
                       "dims header value is not a decimal integer in [0, " +
                           std::to_string(kMaxIndex) +
                           "]: " + std::string(p, last)};
    }
    header.dims.push_back(d);
    p = last;
  }
}

struct FirstDataLine {
  std::size_t offset = 0;
  std::size_t modes = 0;  // 0 when the text has no data line
};

// Finds the document's first data line, which sets its mode count, by a
// serial scan from the start. The `# dims:` headers before it are checked
// on the way, so a malformed one is still the error reported first.
FirstDataLine find_first_data_line(std::string_view text) {
  DimsHeader header;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t offset = pos;
    const std::string_view line = next_line(text, pos, text.size());
    if (line.empty() || read_comment(line, offset, header)) continue;
    const std::size_t fields = count_fields(line);
    if (fields < 2) {
      throw TnsParseAt{offset,
                       "line with fewer than 2 fields: " + std::string(line)};
    }
    if (fields - 1 > kMaxModes) throw TnsParseAt{offset, "too many modes"};
    return {offset, fields - 1};
  }
  return {};
}

// At least the number of data lines in [begin, end): its lines, capped by
// how many of the shortest data lines ("1 1 ... 1", two bytes a field with
// the newline, which the last line may lack) its bytes could hold, so a
// run of blank lines reserves no more than about twice its bytes.
nnz_t max_data_lines(std::string_view text, std::size_t begin,
                     std::size_t end, std::size_t modes) {
  if (begin >= end) return 0;
  const auto first = text.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = text.begin() + static_cast<std::ptrdiff_t>(end);
  const auto lines = static_cast<nnz_t>(std::count(first, last, '\n')) +
                     (text[end - 1] != '\n');
  return std::min<nnz_t>(lines, (end - begin + 1) / (2 * (modes + 1)));
}

// A chunk's rows [row_begin, row_begin + rows) of every output column; its
// data lines fill the first `used` of them.
struct ChunkResult {
  nnz_t row_begin = 0;
  nnz_t rows = 0;
  nnz_t used = 0;
  std::array<index_t, kMaxModes> maxima{};  // 1-based per-mode maxima
  DimsHeader header;
  std::optional<TnsParseAt> error;
};

// Parses a chunk into its rows of `cols` (0-based coordinates) and `vals`.
void parse_chunk(std::string_view text, Chunk chunk,
                 std::vector<std::vector<index_t>>& cols,
                 std::vector<value_t>& vals, ChunkResult& r) {
  const std::size_t modes = cols.size();
  // Fires inside pool workers on the parallel path; parallel_for rethrows
  // it intact.
  AMPED_FAULT_POINT("ingest.chunk");
  metrics::ScopedLatency latency(ingest_chunk_seconds());
  std::array<index_t, kMaxModes> idx{};
  nnz_t row = r.row_begin;
  std::size_t pos = chunk.begin;
  while (pos < chunk.end) {
    const std::size_t offset = pos;
    const std::string_view line = next_line(text, pos, chunk.end);
    if (line.empty() || read_comment(line, offset, r.header)) continue;
    double value = 0.0;
    if (const LineStatus status = parse_line(line, modes, idx.data(), value);
        status != LineStatus::kOk) {
      throw TnsParseAt{offset, line_error(line, modes, status)};
    }
    assert(row < r.row_begin + r.rows);
    for (std::size_t m = 0; m < modes; ++m) {
      r.maxima[m] = std::max(r.maxima[m], idx[m]);
      cols[m][row] = idx[m] - 1;
    }
    vals[row++] = static_cast<value_t>(value);
  }
  r.used = row - r.row_begin;
  ingest_chunks().inc();
  ingest_bytes().inc(chunk.end - chunk.begin);
}

}  // namespace

namespace detail {

std::optional<double> exact_decimal(std::string_view field) {
  const char* const end = field.data() + field.size();
  double v = 0.0;
  if (field.empty() || scan_decimal_fast(field.data(), end, v) != end) {
    return std::nullopt;
  }
  return v;
}

}  // namespace detail

CooTensor read_tns_text(std::string_view text, std::size_t chunk_hint) {
  std::size_t max_chunks = chunk_hint;
  if (max_chunks == 0) {
    // One chunk per worker, but never chunks so small that per-chunk
    // bookkeeping dominates.
    max_chunks = std::max<std::size_t>(
        1, std::min(host_parallelism(), text.size() / kMinChunkBytes));
  }
  const auto chunks = split_chunks(text, max_chunks);

  FirstDataLine first;
  try {
    first = find_first_data_line(text);
  } catch (const TnsParseAt& e) {
    fail_at(text, e.offset, e.what);
  }
  const std::size_t modes = first.modes;
  if (modes == 0) fail("empty tensor stream");

  // Reserve each chunk's rows (none for the lines before the first data
  // line) and place them in document order.
  ThreadPool& pool = global_thread_pool();
  std::vector<ChunkResult> results(chunks.size());
  pool.parallel_for(chunks.size(), [&](std::size_t c) {
    results[c].rows =
        max_data_lines(text, std::max(chunks[c].begin, first.offset),
                       chunks[c].end, modes);
  });
  nnz_t reserved = 0;
  for (auto& r : results) {
    r.row_begin = reserved;
    reserved += r.rows;
  }

  // Allocate every column once, then parse each chunk into its own rows.
  // Every chunk parses under the document's mode count, so the earliest
  // error of any chunk is the one the line-by-line parser stops at.
  std::vector<std::vector<index_t>> cols(modes);
  std::vector<value_t> vals;
  auto each_column = [&](auto&& fn) {  // one pool task per column
    pool.parallel_for(modes + 1, [&](std::size_t m) {
      if (m == modes) {
        fn(vals);
      } else {
        fn(cols[m]);
      }
    });
  };
  each_column([&](auto& col) { col.resize(reserved); });
  pool.parallel_for(chunks.size(), [&](std::size_t c) {
    try {
      parse_chunk(text, chunks[c], cols, vals, results[c]);
    } catch (const TnsParseAt& e) {
      results[c].error = e;
    }
  });
  for (const auto& r : results) {
    if (r.error) fail_at(text, r.error->offset, r.error->what);
  }

  std::vector<index_t> dims(modes, 0);
  DimsHeader declared;
  nnz_t nnz = 0;
  for (const auto& r : results) {
    for (std::size_t m = 0; m < modes; ++m) {
      dims[m] = std::max(dims[m], r.maxima[m]);
    }
    if (declared.dims.empty()) declared.offset = r.header.offset;
    declared.dims.insert(declared.dims.end(), r.header.dims.begin(),
                         r.header.dims.end());
    nnz += r.used;
  }
  if (!declared.dims.empty()) {
    if (declared.dims.size() != modes) {
      fail_at(text, declared.offset, "dims header mode mismatch");
    }
    for (std::size_t m = 0; m < modes; ++m) {
      if (declared.dims[m] < dims[m]) {
        fail_at(text, declared.offset, "dims header smaller than data");
      }
      dims[m] = declared.dims[m];
    }
  }

  // Close up the rows that comment and blank lines left unused.
  if (nnz != reserved) {
    each_column([&](auto& col) {
      nnz_t to = 0;
      for (const auto& r : results) {
        std::memmove(col.data() + to, col.data() + r.row_begin,
                     r.used * sizeof(col[0]));
        to += r.used;
      }
      col.resize(to);
    });
  }
  return CooTensor::from_parts(std::move(dims), std::move(cols),
                               std::move(vals));
}

CooTensor read_tns_file_parallel(const std::string& path,
                                 std::size_t chunk_hint) {
  MappedFile file(path);
  return read_tns_text(file.view(), chunk_hint);
}

}  // namespace amped::io
