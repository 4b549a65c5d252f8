#include "io/tns_ingest.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <exception>
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

// Appends the values of a "# dims: a b c" header line to `dims`.
void parse_dims_header(std::string_view header, std::size_t offset,
                       std::vector<index_t>& dims) {
  const char* p = header.data();
  const char* const end = p + header.size();
  while (true) {
    while (p != end && is_space(*p)) ++p;
    if (p == end) return;
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
    dims.push_back(d);
    p = last;
  }
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

struct ChunkResult {
  std::size_t num_modes = 0;  // 0 until the chunk sees a data line
  // First data line of the chunk, recorded before any validation: the
  // merge phase uses it to reproduce the serial parser's error position
  // when a chunk's local mode count disagrees with the document's.
  std::size_t first_data_fields = 0;
  std::size_t first_data_offset = 0;
  std::string first_data_line;
  std::vector<std::vector<index_t>> cols;  // 0-based coordinates
  std::vector<value_t> vals;
  std::array<index_t, kMaxModes> maxima{};  // 1-based per-mode maxima
  std::vector<index_t> declared_dims;
  std::size_t first_header_offset = 0;  // of the chunk's first dims header
};

void parse_chunk(std::string_view text, Chunk chunk, ChunkResult& out) {
  // Fires inside pool workers on the parallel path; the driver folds the
  // exception through its chunk-error channel and rethrows it intact.
  AMPED_FAULT_POINT("ingest.chunk");
  metrics::ScopedLatency latency(ingest_chunk_seconds());
  std::array<index_t, kMaxModes> idx{};
  std::size_t pos = chunk.begin;
  while (pos < chunk.end) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos || eol >= chunk.end) eol = chunk.end;
    const std::size_t line_offset = pos;
    const std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;

    if (line.empty()) continue;
    if (line.front() == '#') {
      // Optional "# dims: a b c" header.
      const auto dims_pos = line.find("dims:");
      if (dims_pos != std::string_view::npos) {
        if (out.declared_dims.empty()) out.first_header_offset = line_offset;
        parse_dims_header(line.substr(dims_pos + 5), line_offset,
                          out.declared_dims);
      }
      continue;
    }

    if (out.first_data_fields == 0) {
      const std::size_t fields = count_fields(line);
      if (fields < 2) {
        throw TnsParseAt{line_offset, "line with fewer than 2 fields: " +
                                          std::string(line)};
      }
      out.first_data_fields = fields;
      out.first_data_offset = line_offset;
      out.first_data_line = std::string(line);
      const std::size_t modes = fields - 1;
      if (modes > kMaxModes) throw TnsParseAt{line_offset, "too many modes"};
      out.num_modes = modes;
      out.cols.resize(modes);
    }
    double value = 0.0;
    if (const LineStatus status =
            parse_line(line, out.num_modes, idx.data(), value);
        status != LineStatus::kOk) {
      throw TnsParseAt{line_offset, line_error(line, out.num_modes, status)};
    }
    for (std::size_t m = 0; m < out.num_modes; ++m) {
      out.maxima[m] = std::max(out.maxima[m], idx[m]);
      out.cols[m].push_back(idx[m] - 1);
    }
    out.vals.push_back(static_cast<value_t>(value));
  }
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

  std::vector<ChunkResult> results(chunks.size());
  std::optional<TnsParseAt> parse_error;
  std::exception_ptr other_error;
  if (chunks.size() <= 1) {
    try {
      if (!chunks.empty()) parse_chunk(text, chunks[0], results[0]);
    } catch (const TnsParseAt& e) {
      parse_error = e;
    }
  } else {
    std::vector<std::optional<TnsParseAt>> chunk_errors(chunks.size());
    std::vector<std::exception_ptr> chunk_other(chunks.size());
    global_thread_pool().parallel_for(chunks.size(), [&](std::size_t c) {
      try {
        parse_chunk(text, chunks[c], results[c]);
      } catch (const TnsParseAt& e) {
        chunk_errors[c] = e;
      } catch (...) {
        chunk_other[c] = std::current_exception();
      }
    });
    // Report the error earliest in the document, matching where the
    // serial parser would have stopped.
    for (auto& e : chunk_errors) {
      if (e && (!parse_error || e->offset < parse_error->offset)) {
        parse_error = e;
      }
    }
    for (auto& e : chunk_other) {
      if (e && !other_error) other_error = e;
    }
  }
  if (other_error) std::rethrow_exception(other_error);

  // The file's mode count is set by its first data line (the earliest
  // chunk that saw one — chunk order is document order). A chunk whose
  // own first data line disagrees parsed under the wrong local mode
  // count, so any error it raised later is bogus — but its first data
  // line is exactly where the serial parser reports "inconsistent mode
  // count", and that offset precedes every in-chunk error of the same
  // chunk. Folding these candidates into the minimum-offset pick (ties
  // go to the candidate) therefore reproduces the serial error exactly.
  std::size_t first_fields = 0;
  for (const auto& r : results) {
    if (r.first_data_fields != 0) {
      first_fields = r.first_data_fields;
      break;
    }
  }
  for (const auto& r : results) {
    if (r.first_data_fields != 0 && r.first_data_fields != first_fields &&
        (!parse_error || r.first_data_offset <= parse_error->offset)) {
      parse_error =
          TnsParseAt{r.first_data_offset,
                     "inconsistent mode count on line: " + r.first_data_line};
    }
  }
  if (parse_error) fail_at(text, parse_error->offset, parse_error->what);
  const std::size_t num_modes = first_fields == 0 ? 0 : first_fields - 1;
  if (num_modes == 0) fail("empty tensor stream");

  std::vector<index_t> dims(num_modes, 0);
  std::vector<index_t> declared_dims;
  std::size_t header_offset = 0;
  nnz_t total = 0;
  for (const auto& r : results) {
    for (std::size_t m = 0; m < num_modes && r.num_modes != 0; ++m) {
      dims[m] = std::max(dims[m], r.maxima[m]);
    }
    if (declared_dims.empty()) header_offset = r.first_header_offset;
    declared_dims.insert(declared_dims.end(), r.declared_dims.begin(),
                         r.declared_dims.end());
    total += r.vals.size();
  }
  if (!declared_dims.empty()) {
    if (declared_dims.size() != num_modes) {
      fail_at(text, header_offset, "dims header mode mismatch");
    }
    for (std::size_t m = 0; m < num_modes; ++m) {
      if (declared_dims[m] < dims[m]) {
        fail_at(text, header_offset, "dims header smaller than data");
      }
      dims[m] = declared_dims[m];
    }
  }

  std::vector<std::vector<index_t>> cols(num_modes);
  std::vector<value_t> vals;
  if (results.size() == 1) {
    cols = std::move(results[0].cols);
    vals = std::move(results[0].vals);
  } else {
    // Concatenate the chunk slabs in document order, one pool task per
    // output column; each slab is freed once copied.
    auto concat = [&](auto& dst, auto&& slab_of) {
      dst.reserve(total);
      for (auto& r : results) {
        if (r.num_modes == 0) continue;
        auto& slab = slab_of(r);
        dst.insert(dst.end(), slab.begin(), slab.end());
        std::remove_reference_t<decltype(slab)>().swap(slab);
      }
    };
    global_thread_pool().parallel_for(num_modes + 1, [&](std::size_t m) {
      if (m == num_modes) {
        concat(vals, [](ChunkResult& r) -> auto& { return r.vals; });
      } else {
        concat(cols[m], [m](ChunkResult& r) -> auto& { return r.cols[m]; });
      }
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
