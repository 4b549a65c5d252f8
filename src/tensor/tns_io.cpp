#include "tensor/tns_io.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "io/snapshot.hpp"
#include "io/tns_ingest.hpp"

namespace amped {

namespace {
constexpr char kMagic[8] = {'A', 'M', 'P', 'T', 'N', 'S', '0', '1'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tns_io: " + what);
}

}  // namespace

CooTensor read_tns(std::istream& in) {
  // One parser: buffer the stream, then parse it like a mapped file.
  std::ostringstream text;
  text << in.rdbuf();
  return io::read_tns_text(text.view());
}

CooTensor read_tns_file(const std::string& path) {
  // Regular files are mapped and parsed in parallel; non-regular inputs
  // (FIFOs, process substitution) cannot be mapped and are read through
  // the stream. Both run the same parser, so the tensor is the same.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    std::ifstream in(path);
    if (!in) fail("cannot open " + path);
    return read_tns(in);
  }
  return io::read_tns_file_parallel(path);
}

void write_tns(const CooTensor& t, std::ostream& out) {
  out << "# dims:";
  for (index_t d : t.dims()) out << ' ' << d;
  out << '\n';
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    for (std::size_t m = 0; m < t.num_modes(); ++m) {
      out << (t.indices(m)[n] + 1) << ' ';
    }
    out << t.values()[n] << '\n';
  }
}

void write_tns_file(const CooTensor& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open " + path + " for writing");
  write_tns(t, out);
}

void write_binary_file(const CooTensor& t, const std::string& path) {
  // Crash-safe like the v2 writer: bytes land in a temp file that is
  // fsynced and atomically renamed over `path` on success.
  io::AtomicFileWriter out(path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t modes = t.num_modes();
  const std::uint64_t nnz = t.nnz();
  out.write(&modes, sizeof(modes));
  out.write(&nnz, sizeof(nnz));
  for (index_t d : t.dims()) {
    const std::uint64_t dim = d;
    out.write(&dim, sizeof(dim));
  }
  for (std::size_t m = 0; m < t.num_modes(); ++m) {
    out.write(t.indices(m).data(), nnz * sizeof(index_t));
  }
  out.write(t.values().data(), nnz * sizeof(value_t));
  out.commit();
}

CooTensor read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (in && std::memcmp(magic, io::kSnapshotMagicV2, sizeof(magic)) == 0) {
    in.close();
    return io::read_snapshot_file(path);  // forward compatibility
  }
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic in " + path);
  }
  std::uint64_t modes = 0, nnz = 0;
  in.read(reinterpret_cast<char*>(&modes), sizeof(modes));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  if (!in || modes == 0 || modes > kMaxModes) fail("bad header in " + path);

  // Validate the claimed element count against the actual file size
  // before allocating: a truncated or corrupt header must produce a clear
  // error, not a partially-filled tensor or a giant allocation. The
  // division bound runs first so `nnz * per_nnz` cannot wrap.
  const std::uint64_t header_bytes = sizeof(kMagic) +
                                     2 * sizeof(std::uint64_t) +
                                     modes * sizeof(std::uint64_t);
  const std::uint64_t per_nnz = modes * sizeof(index_t) + sizeof(value_t);
  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(path, ec);
  if (ec || actual < header_bytes ||
      (actual - header_bytes) / per_nnz < nnz ||
      actual - header_bytes != nnz * per_nnz) {
    fail("truncated file " + path + " (header promises " +
         std::to_string(header_bytes) + "+" + std::to_string(nnz) + "*" +
         std::to_string(per_nnz) + " bytes, file has " +
         std::to_string(actual) + ")");
  }

  std::vector<index_t> dims(modes);
  for (auto& d : dims) {
    std::uint64_t dim = 0;
    in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
    if (dim > UINT32_MAX) {
      fail("mode size exceeds 32-bit index space in " + path);
    }
    d = static_cast<index_t>(dim);
  }
  std::vector<std::vector<index_t>> cols(modes,
                                         std::vector<index_t>(nnz));
  for (auto& c : cols) {
    in.read(reinterpret_cast<char*>(c.data()),
            static_cast<std::streamsize>(nnz * sizeof(index_t)));
  }
  std::vector<value_t> vals(nnz);
  in.read(reinterpret_cast<char*>(vals.data()),
          static_cast<std::streamsize>(nnz * sizeof(value_t)));
  if (!in) fail("truncated file " + path);
  return CooTensor::from_parts(std::move(dims), std::move(cols),
                               std::move(vals));
}

}  // namespace amped
