// FROSTT `.tns` text I/O plus a compact binary snapshot format.
//
// The text format is one nonzero per line: N 1-based indices followed by
// the value, `#` comments allowed — exactly what frostt.io distributes, so
// users can feed real datasets (Amazon/Patents/Reddit) to this library
// unchanged. The binary format (`.amptns`) exists because billion-scale
// text parsing is slow; it is a versioned little-endian dump of the SoA
// arrays.
#pragma once

#include <iosfwd>
#include <string>

#include "tensor/coo_tensor.hpp"

namespace amped {

// Parses a FROSTT text tensor from a stream: indices are decimal integers
// in [1, 2^32 - 1]. Mode sizes are taken as the max index seen per mode
// unless a `# dims: a b c` header is present. Tolerates CRLF line endings
// and leading/trailing whitespace. Throws std::runtime_error on malformed
// input, naming the 1-based line number. The whole stream is read into
// memory first (up to about twice its size while the buffer grows), then
// parsed in parallel chunks by io::read_tns_text (io/tns_ingest.hpp), so
// a stream costs its text on top of the tensor, which a mapped file does
// not.
CooTensor read_tns(std::istream& in);
// File variant; regular files are mapped and parsed in parallel chunks by
// the same parser (same result element for element).
CooTensor read_tns_file(const std::string& path);

// Writes FROSTT text (1-based indices, `# dims:` header first).
void write_tns(const CooTensor& t, std::ostream& out);
void write_tns_file(const CooTensor& t, const std::string& path);

// v1 binary snapshot (magic "AMPTNS01"). The writer is crash-safe (temp
// file + atomic rename); the reader rejects truncated files and
// transparently forwards v2 ("AMPTNS02") files to io/snapshot.hpp, where
// the current checksummed, mmap-able format lives.
void write_binary_file(const CooTensor& t, const std::string& path);
CooTensor read_binary_file(const std::string& path);

}  // namespace amped
