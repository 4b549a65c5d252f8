// Parallel FROSTT `.tns` ingest: the one text parser of the library.
//
// A serial scan from the start finds the first data line, which sets the
// mode count. The text is then cut into byte ranges split on newline
// boundaries, and the global thread pool runs four passes over them:
//  1. count: each range counts its lines (capped by how many shortest
//     data lines its bytes could hold) and reserves that many rows;
//  2. reserve: each output column is allocated once, at the total, by its
//     own pool task;
//  3. parse in place: each range parses its lines straight into its rows
//     of the output columns;
//  4. close gaps: only when comment or blank lines left rows unused, one
//     task per column moves the ranges' rows together.
// Every range parses under the document's mode count and the earliest
// error wins, so the result does not depend on the chunking — including
// which line a malformed input is reported on. The stream reader
// `read_tns` buffers its stream and runs this parser on the buffer.
//
// Fields are scanned integer-first: an index is a decimal integer in
// [1, 2^32 - 1] with an optional leading '+', read without going through
// floating point. A value of the form [+-]digits[.digits] with few enough
// digits is converted exactly (Clinger's fast path: one correctly rounded
// division, the same double std::from_chars gives); any other value goes
// to std::from_chars. Values are stored as float.
//
// Accepts `#` comments, an optional `# dims: a b c` header (decimal
// integers), CRLF line endings, and leading/trailing whitespace. A data
// line is exactly N index fields and one value. Malformed input (a
// non-integer, zero, negative or too large index, a field that is not a
// number, a ragged line, a bad header value) throws std::runtime_error
// naming the 1-based line number.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "tensor/coo_tensor.hpp"

namespace amped::io {

// Parses a whole `.tns` text held in memory. `chunk_hint` caps the number
// of parallel chunks (0 = derive from the pool size and text length; 1 =
// serial).
CooTensor read_tns_text(std::string_view text, std::size_t chunk_hint = 0);

// Maps `path` and parses it with read_tns_text.
CooTensor read_tns_file_parallel(const std::string& path,
                                 std::size_t chunk_hint = 0);

namespace detail {

// The exact value conversion of the parser: the double of `field` when it
// has the fast-path form ([+-]digits[.[digits]], at most 19 digits forming
// an integer <= 2^53, at most 22 after the point), else nullopt. Exposed
// for tests, which check it against std::from_chars.
std::optional<double> exact_decimal(std::string_view field);

}  // namespace detail

}  // namespace amped::io
