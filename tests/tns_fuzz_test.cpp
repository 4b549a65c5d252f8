// Fuzz-style tests for the `.tns` text parser (io/tns_ingest.hpp).
//
// Two contracts are attacked. First, the verdict does not depend on how
// the text is read: generated tensors are printed as text, mutated at the
// field and the byte level (digits turned into '.', 'e', '-', ragged and
// split lines, CRLF, nan/inf values, out-of-range and non-integer
// indices, bad dims headers), and parsed by the stream reader and at
// chunk hints 0, 1, 2 and 7. Every parse must give a memcmp-identical
// tensor, or the same error naming the same line. A failing case logs
// its seed. Second, the exact value fast path is bit-equal to
// std::from_chars on random decimal strings, and the parser stores the
// float of that double.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/tns_ingest.hpp"
#include "tensor/tns_io.hpp"
#include "util/random.hpp"

namespace amped {
namespace {

// The tensor a parse produced, or the message it threw.
struct Outcome {
  std::optional<CooTensor> tensor;
  std::string error;
};

// chunks < 0 reads through the stream reader.
Outcome parse(const std::string& text, int chunks) {
  Outcome out;
  try {
    if (chunks < 0) {
      std::istringstream in(text);
      out.tensor = read_tns(in);
    } else {
      out.tensor = io::read_tns_text(text, static_cast<std::size_t>(chunks));
    }
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

// Empty when `a` and `b` agree byte for byte, else what differs.
std::string difference(const Outcome& a, const Outcome& b) {
  if (a.tensor.has_value() != b.tensor.has_value() || a.error != b.error) {
    return "verdicts differ: '" + a.error + "' vs '" + b.error + "'";
  }
  if (!a.tensor) return "";
  const CooTensor& x = *a.tensor;
  const CooTensor& y = *b.tensor;
  if (x.dims() != y.dims() || x.nnz() != y.nnz()) return "shapes differ";
  for (std::size_t m = 0; m < x.num_modes(); ++m) {
    if (std::memcmp(x.indices(m).data(), y.indices(m).data(),
                    x.nnz() * sizeof(index_t)) != 0) {
      return "mode " + std::to_string(m) + " differs";
    }
  }
  if (std::memcmp(x.values().data(), y.values().data(),
                  x.nnz() * sizeof(value_t)) != 0) {
    return "values differ";
  }
  return "";
}

std::string pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.next_below(options.size())];
}

// A value spelled one of the ways real files spell them.
std::string random_value(Rng& rng) {
  const double scale =
      std::pow(10.0, static_cast<double>(rng.next_below(12)) - 6.0);
  const double v = (rng.next_double() - 0.3) * scale;
  char buf[64];
  char* const end = buf + sizeof(buf);
  std::to_chars_result r{};
  switch (rng.next_below(3)) {
    case 0:
      r = std::to_chars(buf, end, v, std::chars_format::general, 6);
      break;
    case 1:
      r = std::to_chars(buf, end, v, std::chars_format::fixed,
                        static_cast<int>(rng.next_below(9)));
      break;
    default:
      r = std::to_chars(buf, end, v, std::chars_format::scientific, 4);
      break;
  }
  return std::string(buf, r.ptr);
}

// A generated tensor as fields: a dims header (sometimes), then one line
// per nonzero of 1-5 indices and a value.
std::vector<std::vector<std::string>> random_lines(Rng& rng) {
  const std::size_t modes = 1 + rng.next_below(5);
  std::vector<std::uint64_t> dims(modes);
  for (auto& d : dims) {
    d = rng.next_below(4) == 0 ? 4294967295u : 1 + rng.next_below(5000);
  }
  std::vector<std::vector<std::string>> lines;
  if (rng.next_below(2) == 0) {
    std::vector<std::string> header = {"#", "dims:"};
    for (auto d : dims) header.push_back(std::to_string(d));
    lines.push_back(header);
  }
  const std::size_t nnz = 20 + rng.next_below(200);
  for (std::size_t e = 0; e < nnz; ++e) {
    std::vector<std::string> fields;
    for (auto d : dims) fields.push_back(std::to_string(1 + rng.next_below(d)));
    fields.push_back(random_value(rng));
    lines.push_back(std::move(fields));
  }
  return lines;
}

// Replaces, drops or adds fields of random lines.
void mutate_fields(Rng& rng, std::vector<std::vector<std::string>>& lines) {
  auto& line = lines[rng.next_below(lines.size())];
  const std::size_t f = rng.next_below(line.size());
  switch (rng.next_below(6)) {
    case 0:  // an index that is not a plain one
      line[f] = pick(rng, {"0", "-1", "+3", "1.0", "1e2", "4294967295",
                           "4294967296", "99999999999999999999", "007"});
      break;
    case 1:  // a special or unusual value
      line.back() = pick(rng, {"nan", "inf", "-inf", "-0.0", "+5", "1e-310",
                               "1e400", "-nan", "0x1p3", ".5", "5.", "1e"});
      break;
    case 2:  // ragged: one field fewer
      line.erase(line.begin() + static_cast<std::ptrdiff_t>(f));
      break;
    case 3:  // ragged: one field more
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(f), "7");
      break;
    case 4:  // a dims header with a good or bad value
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(lines.size())),
                   {"#", "dims:", "9",
                    pick(rng, {"9", "x", "1.5", "4294967296", "-2"})});
      break;
    default:  // a comment line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(lines.size())),
                   {"#", "comment", "1", "2"});
      break;
  }
}

// Byte-level damage: digits turned into '.', 'e' or '-', bytes dropped,
// lines split or merged, CRLF endings, tabs and trailing blanks.
void mutate_bytes(Rng& rng, std::string& text) {
  const std::size_t at = rng.next_below(text.size());
  switch (rng.next_below(6)) {
    case 0: {
      const std::size_t digit = text.find_first_of("0123456789", at);
      if (digit != std::string::npos) text[digit] = ".e-"[rng.next_below(3)];
      break;
    }
    case 1:
      text.erase(at, 1);
      break;
    case 2:
      text.insert(at, "\n");
      break;
    case 3: {
      const std::size_t nl = text.find('\n', at);
      if (nl != std::string::npos) text.erase(nl, 1);
      break;
    }
    case 4: {
      const std::size_t nl = text.find('\n', at);
      if (nl != std::string::npos) text.insert(nl, "\r");
      break;
    }
    default:
      text.insert(at, rng.next_below(2) == 0 ? "\t" : "  ");
      break;
  }
}

std::string join(const std::vector<std::vector<std::string>>& lines,
                 Rng& rng) {
  const bool crlf = rng.next_below(4) == 0;
  std::string text;
  for (const auto& line : lines) {
    for (std::size_t f = 0; f < line.size(); ++f) {
      if (f) text += rng.next_below(8) == 0 ? "\t" : " ";
      text += line[f];
    }
    text += crlf ? "\r\n" : "\n";
  }
  return text;
}

TEST(TnsFuzzTest, MutatedTextParsesTheSameAtEveryChunking) {
  constexpr std::uint64_t kCases = 1500;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    Rng rng(seed);
    auto lines = random_lines(rng);
    const std::size_t field_mutations = rng.next_below(3);
    for (std::size_t i = 0; i < field_mutations; ++i) {
      mutate_fields(rng, lines);
    }
    std::string text = join(lines, rng);
    const std::size_t byte_mutations = rng.next_below(3);
    for (std::size_t i = 0; i < byte_mutations && !text.empty(); ++i) {
      mutate_bytes(rng, text);
    }

    const Outcome serial = parse(text, -1);
    if (serial.tensor) ++accepted;
    for (int chunks : {0, 1, 2, 7}) {
      const std::string diff = difference(serial, parse(text, chunks));
      if (!diff.empty()) {
        ADD_FAILURE() << "seed " << seed << ", chunks " << chunks << ": "
                      << diff << "\ntext:\n"
                      << text;
      }
    }
    // Every error but "no data at all" names a line.
    if (!serial.tensor &&
        serial.error.find("empty tensor stream") == std::string::npos) {
      EXPECT_NE(serial.error.find("(line "), std::string::npos)
          << "seed " << seed << ": " << serial.error;
    }
  }
  // Both verdicts must be well represented, or the pass proves little.
  EXPECT_GT(accepted, kCases / 5);
  EXPECT_LT(accepted, kCases * 4 / 5);
}

// A decimal string of 1-17 digits with an optional sign, point and
// exponent.
std::string random_decimal(Rng& rng) {
  std::string s;
  const auto sign = rng.next_below(10);
  if (sign < 3) s += '-';
  if (sign == 3) s += '+';
  const std::size_t digits = 1 + rng.next_below(17);
  const std::size_t point = rng.next_below(digits + 2);  // > digits: none
  const bool leading_zeros = rng.next_below(4) == 0;
  for (std::size_t i = 0; i < digits; ++i) {
    if (i == point) s += '.';
    s += static_cast<char>(
        '0' + (leading_zeros && i < digits / 2 ? 0 : rng.next_below(10)));
  }
  if (point == digits) s += '.';
  if (rng.next_below(5) == 0) {
    s += rng.next_below(2) == 0 ? 'e' : 'E';
    if (rng.next_below(2) == 0) s += rng.next_below(2) == 0 ? '-' : '+';
    s += std::to_string(rng.next_below(31));
  }
  return s;
}

TEST(TnsFuzzTest, ExactValuePathIsBitEqualToFromChars) {
  std::vector<std::string> fields = {
      "0",   "-0",  "-0.0", "+0.0", "1.", "0.1", "0.30000000000000004",
      "9007199254740992",  // 2^53: the largest fast-path mantissa
      "9007199254740993",  // 2^53 + 1: from_chars rounds it
      "1234567890123456789", "0.0000000000000000000001",
      "0.1234567890123456789012", "00000000000000000001.5",
      "3.4028235e38", "1.17549435e-38"};
  Rng rng(2024);
  while (fields.size() < 120000) fields.push_back(random_decimal(rng));

  std::size_t fast = 0;
  std::string text;
  std::vector<double> expected;
  for (const auto& field : fields) {
    const char* first = field.data() + (field[0] == '+' ? 1 : 0);
    const char* last = field.data() + field.size();
    double want = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, want);
    ASSERT_TRUE(ec == std::errc() && ptr == last) << field;
    if (const auto got = io::detail::exact_decimal(field)) {
      ++fast;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(want))
          << field;
    }
    text += "1 " + field + "\n";
    expected.push_back(want);
  }
  // Most plain decimals take the fast path; exponents never do.
  EXPECT_GT(fast, fields.size() / 2);
  EXPECT_FALSE(io::detail::exact_decimal("1e5").has_value());
  EXPECT_FALSE(io::detail::exact_decimal("9007199254740993").has_value());
  EXPECT_FALSE(io::detail::exact_decimal("").has_value());
  EXPECT_FALSE(io::detail::exact_decimal("1 2").has_value());

  // End to end, fast path or not, the parser stores the float of that
  // double.
  const CooTensor t = io::read_tns_text(text);
  ASSERT_EQ(t.nnz(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(t.values()[i]),
              std::bit_cast<std::uint32_t>(static_cast<value_t>(expected[i])))
        << fields[i];
  }
}

}  // namespace
}  // namespace amped
