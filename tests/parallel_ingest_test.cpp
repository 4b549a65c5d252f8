#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "io/tns_ingest.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"

namespace amped {
namespace {

void expect_tensors_equal(const CooTensor& a, const CooTensor& b) {
  ASSERT_EQ(a.num_modes(), b.num_modes());
  ASSERT_EQ(a.dims(), b.dims());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t m = 0; m < a.num_modes(); ++m) {
    ASSERT_EQ(0, std::memcmp(a.indices(m).data(), b.indices(m).data(),
                             a.nnz() * sizeof(index_t)))
        << "mode " << m << " differs";
  }
  ASSERT_EQ(0, std::memcmp(a.values().data(), b.values().data(),
                           a.nnz() * sizeof(value_t)));
}

CooTensor serial_parse(const std::string& text) {
  std::istringstream in(text);
  return read_tns(in);
}

std::string tns_text_of(const CooTensor& t) {
  std::ostringstream out;
  write_tns(t, out);
  return out.str();
}

TEST(ParallelIngestTest, MatchesSerialAcrossShapesAndChunkCounts) {
  struct Case {
    std::vector<index_t> dims;
    nnz_t nnz;
  };
  const Case cases[] = {
      {{64}, 150},                // 1 mode
      {{40, 30}, 400},            // 2 modes
      {{20, 30, 10}, 1000},       // 3 modes
      {{12, 9, 7, 5, 4}, 700},    // 5 modes
  };
  std::uint64_t seed = 11;
  for (const auto& c : cases) {
    GeneratorOptions opt;
    opt.dims = c.dims;
    opt.nnz = c.nnz;
    opt.seed = seed++;
    const auto t = generate_random(opt);
    const auto text = tns_text_of(t);
    const auto serial = serial_parse(text);
    for (std::size_t chunks : {std::size_t{0}, std::size_t{1},
                               std::size_t{3}, std::size_t{8}}) {
      expect_tensors_equal(serial, io::read_tns_text(text, chunks));
    }
  }
}

TEST(ParallelIngestTest, AcceptsCrlfAndWhitespace) {
  const std::string text =
      "  # a comment with leading spaces\r\n"
      "\t# dims: 10 10 10\r\n"
      "\r\n"
      "   \t  \r\n"
      " 1 1 1 2.5 \r\n"
      "\t3\t2\t5\t-1.0\t\r\n"
      "10 10 10 4.0";  // no trailing newline
  for (std::size_t chunks : {std::size_t{1}, std::size_t{4}}) {
    const auto t = io::read_tns_text(text, chunks);
    ASSERT_EQ(t.num_modes(), 3u);
    ASSERT_EQ(t.nnz(), 3u);
    EXPECT_EQ(t.dim(0), 10u);
    EXPECT_EQ(t.indices(0)[1], 2u);
    EXPECT_FLOAT_EQ(t.values()[0], 2.5f);
    EXPECT_FLOAT_EQ(t.values()[2], 4.0f);
  }
  // The hardened serial parser accepts the same bytes.
  expect_tensors_equal(serial_parse(text), io::read_tns_text(text));
}

TEST(ParallelIngestTest, ErrorsNameTheLine) {
  const std::string text =
      "# comment\n"
      "1 1 1 2.5\n"
      "1 0 1 3.5\n";  // zero index on line 3
  for (std::size_t chunks : {std::size_t{1}, std::size_t{4}}) {
    try {
      io::read_tns_text(text, chunks);
      FAIL() << "expected malformed input to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("(line 3)"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("1-based"), std::string::npos);
    }
  }
  // Serial parser reports the same position.
  try {
    serial_parse(text);
    FAIL() << "expected malformed input to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(line 3)"), std::string::npos);
  }
}

TEST(ParallelIngestTest, ReportsEarliestErrorAcrossChunks) {
  // Two bad lines; whatever the chunking, the first one wins — matching
  // where the serial parser stops.
  std::string text = "1 1 1 1.0\n";
  for (int i = 0; i < 50; ++i) text += "2 2 2 2.0\n";
  text += "bad line\n";             // line 52
  for (int i = 0; i < 50; ++i) text += "3 3 3 3.0\n";
  text += "0 1 1 1.0\n";            // line 103, also bad
  try {
    io::read_tns_text(text, 6);
    FAIL() << "expected malformed input to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(line 52)"), std::string::npos)
        << e.what();
  }
}

TEST(ParallelIngestTest, InconsistentModeCountAcrossChunks) {
  // Enough 3-mode lines to fill the first chunks, then a consistent run
  // of 4-mode lines that lands in a later chunk: the merge must still
  // report the first offending line.
  std::string text;
  for (int i = 0; i < 60; ++i) text += "1 2 3 1.0\n";
  for (int i = 0; i < 60; ++i) text += "1 2 3 4 1.0\n";
  try {
    io::read_tns_text(text, 4);
    FAIL() << "expected malformed input to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent mode count"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(line 61)"), std::string::npos)
        << e.what();
  }
}

TEST(ParallelIngestTest, ChunkLocalModeMismatchStillMatchesSerialError) {
  // A chunk whose own first data line is internally consistent at the
  // wrong mode count parses the rest of its range under that wrong
  // count; any error it raises (here "index < 1" on line 42) is bogus.
  // The reported error must still be serial's: "inconsistent mode
  // count" at the chunk's first data line.
  std::string text;
  for (int i = 0; i < 40; ++i) text += "1 2 3 1.0\n";  // 3 modes
  text += "7 1.5\n";   // line 41: 1 mode
  text += "0 1.5\n";   // line 42: would be "index < 1" under local count
  for (std::size_t chunks : {std::size_t{1}, std::size_t{4},
                             std::size_t{41}}) {
    try {
      io::read_tns_text(text, chunks);
      FAIL() << "expected malformed input to throw (chunks=" << chunks
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("inconsistent mode count"),
                std::string::npos)
          << "chunks=" << chunks << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("(line 41)"), std::string::npos)
          << "chunks=" << chunks << ": " << e.what();
    }
  }
  // A too-wide line in a non-first position is likewise "inconsistent
  // mode count" (serial never re-evaluates "too many modes" mid-file).
  std::string wide;
  for (int i = 0; i < 40; ++i) wide += "1 2 3 1.0\n";
  wide += "1 2 3 4 5 6 7 8 9 1.5\n";  // line 41: 9 modes > kMaxModes
  for (std::size_t chunks : {std::size_t{1}, std::size_t{41}}) {
    try {
      io::read_tns_text(wide, chunks);
      FAIL() << "expected malformed input to throw (chunks=" << chunks
             << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("inconsistent mode count"),
                std::string::npos)
          << "chunks=" << chunks << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("(line 41)"), std::string::npos)
          << "chunks=" << chunks << ": " << e.what();
    }
  }
}

TEST(ParallelIngestTest, AcceptsExplicitPlusSignsLikeIstream) {
  // An explicit '+' is accepted on indices and values, as the istream
  // extraction the first parser used did.
  const std::string text = "+1 2 3 +2.5\n4 +5 6 -1.0\n";
  const auto parallel = io::read_tns_text(text, 2);
  expect_tensors_equal(serial_parse(text), parallel);
  EXPECT_FLOAT_EQ(parallel.values()[0], 2.5f);
  EXPECT_EQ(parallel.indices(1)[1], 4u);
}

// Parses `text` with the stream reader and at chunk hints 0, 1, 2 and 7,
// expecting each to throw an error naming `line` and containing `what`.
void expect_error_everywhere(const std::string& text, int line,
                             const std::string& what) {
  auto check = [&](const std::function<void()>& parse,
                   const std::string& how) {
    try {
      parse();
      ADD_FAILURE() << how << ": expected an error for:\n" << text;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("(line " + std::to_string(line) + ")"),
                std::string::npos)
          << how << ": " << msg;
      EXPECT_NE(msg.find(what), std::string::npos) << how << ": " << msg;
    }
  };
  check([&] { serial_parse(text); }, "read_tns");
  for (std::size_t chunks : {0, 1, 2, 7}) {
    check([&] { io::read_tns_text(text, chunks); },
          "chunks=" + std::to_string(chunks));
  }
}

TEST(ParallelIngestTest, IndicesAreDecimalIntegersInRange) {
  // The largest index a 32-bit coordinate holds is accepted, as are
  // explicit '+' signs and leading zeros...
  const std::string max_ok =
      "1 2 1.0\n4294967295 +1 2.0\n0000000000000000000000003 007 3.0\n";
  const auto t = io::read_tns_text(max_ok, 2);
  EXPECT_EQ(t.dim(0), 4294967295u);
  EXPECT_EQ(t.indices(0)[1], 4294967294u);
  EXPECT_EQ(t.indices(1)[1], 0u);  // "+1"
  EXPECT_EQ(t.indices(0)[2], 2u);  // 25 digits, value 3
  EXPECT_EQ(t.indices(1)[2], 6u);
  expect_tensors_equal(serial_parse(max_ok), t);

  // ...and every other spelling is an error naming its line, with the same
  // verdict serially and at any chunking.
  const std::pair<std::string, std::string> bad[] = {
      {"4294967296", "index > 4294967295"},
      {"99999999999999999999", "index > 4294967295"},  // 20 digits
      {"18446744073709551617", "index > 4294967295"},  // 2^64 + 1
      {"1.0", "not a decimal integer"},
      {"1e2", "not a decimal integer"},
      {"0x10", "not a decimal integer"},
      {"+", "not a decimal integer"},
      {"nan", "not a decimal integer"},
      {"0", "index < 1 (FROSTT is 1-based)"},
      {"-3", "index < 1 (FROSTT is 1-based)"},
      {"-0", "index < 1 (FROSTT is 1-based)"},
  };
  for (const auto& [index, what] : bad) {
    std::string text;
    for (int i = 0; i < 30; ++i) text += "1 2 1.0\n";
    text += "2 " + index + " 1.0\n";  // line 31
    for (int i = 0; i < 30; ++i) text += "3 4 1.0\n";
    SCOPED_TRACE("index " + index);
    expect_error_everywhere(text, 31, what);
  }
}

TEST(ParallelIngestTest, MalformedValuesAndRaggedLinesNameTheLine) {
  const std::pair<std::string, std::string> bad[] = {
      {"1 2 1.0x", "value is not a number"},
      {"1 2 --1", "value is not a number"},
      {"1 2 1e400", "value out of range"},
      {"1 2 1.0 7", "inconsistent mode count"},
      {"1 2", "inconsistent mode count"},
      {"5", "fewer than 2 fields"},
  };
  for (const auto& [line, what] : bad) {
    const std::string text = "# dims: 9 9\n1 1 1.0\n" + line + "\n2 2 2.0\n";
    SCOPED_TRACE(line);
    expect_error_everywhere(text, 3, what);
  }
  // Special values that from_chars spells are accepted.
  const auto t = io::read_tns_text("1 1 nan\n1 2 -inf\n2 1 -0.0\n2 2 1e-3\n");
  EXPECT_TRUE(std::isnan(t.values()[0]));
  EXPECT_EQ(t.values()[1], -std::numeric_limits<value_t>::infinity());
  EXPECT_TRUE(std::signbit(t.values()[2]));
  EXPECT_EQ(t.values()[3], static_cast<value_t>(1e-3));
}

TEST(ParallelIngestTest, DimsHeaderValuesAreCheckedIntegers) {
  for (const std::string header :
       {"# dims: 10 x 10", "# dims: 10 4294967296 10", "# dims: 10 1.5 10",
        "# dims: -4 10 10"}) {
    SCOPED_TRACE(header);
    expect_error_everywhere("# comment\n" + header + "\n1 1 1 1.0\n", 2,
                            "dims header value is not a decimal integer");
  }
  EXPECT_EQ(io::read_tns_text("# dims: +10 4294967295\n1 1 1.0\n").dim(1),
            4294967295u);
}

TEST(ParallelIngestTest, HonoursDimsHeaderAndRejectsTooSmall) {
  const std::string ok = "# dims: 10 10 10\n1 1 1 1.0\n";
  EXPECT_EQ(io::read_tns_text(ok, 2).dim(0), 10u);
  const std::string bad = "# dims: 2 2 2\n5 1 1 1.0\n";
  EXPECT_THROW(io::read_tns_text(bad, 2), std::runtime_error);
}

TEST(ParallelIngestTest, EmptyInputsThrow) {
  EXPECT_THROW(io::read_tns_text("", 1), std::runtime_error);
  EXPECT_THROW(io::read_tns_text("# only comments\n", 4),
               std::runtime_error);
}

// The chunk hints the edge cases run at: serial, two to sixteen chunks,
// and the pool-derived default.
constexpr std::size_t kEdgeHints[] = {0, 1, 2, 3, 8, 16};

// Parses `text` with the stream reader and at every edge hint, expecting
// the same tensor each time.
void expect_same_at_every_hint(const std::string& text) {
  const auto serial = serial_parse(text);
  for (std::size_t chunks : kEdgeHints) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    expect_tensors_equal(serial, io::read_tns_text(text, chunks));
  }
}

// As expect_error_everywhere, at the edge hints.
void expect_error_at_every_hint(const std::string& text, int line,
                                const std::string& what) {
  for (std::size_t chunks : kEdgeHints) {
    try {
      io::read_tns_text(text, chunks);
      ADD_FAILURE() << "chunks=" << chunks << ": expected an error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("(line " + std::to_string(line) + ")"),
                std::string::npos)
          << "chunks=" << chunks << ": " << msg;
      EXPECT_NE(msg.find(what), std::string::npos)
          << "chunks=" << chunks << ": " << msg;
    }
  }
  expect_error_everywhere(text, line, what);
}

// `n` data lines of a 3-mode tensor, numbered from `first`.
std::string data_lines(int first, int n) {
  std::string text;
  for (int i = first; i < first + n; ++i) {
    text += std::to_string(i % 7 + 1) + ' ' + std::to_string(i % 5 + 1) +
            ' ' + std::to_string(i + 1) + ' ' + std::to_string(i) + ".25\n";
  }
  return text;
}

TEST(ParallelIngestEdgeTest, CommentsAndBlankLinesInLaterChunks) {
  // Rows reserved for comment and blank lines in every chunk are closed
  // up; the tensor is the serial parser's.
  std::string text = "# dims: 7 5 400\n";
  for (int block = 0; block < 40; ++block) {
    text += data_lines(block * 10, 10);
    text += block % 2 == 0 ? "# a comment between blocks\n" : "\n  \t\r\n";
  }
  const auto t = io::read_tns_text(text, 8);
  EXPECT_EQ(t.nnz(), 400u);
  EXPECT_EQ(t.indices(2)[399], 399u);
  expect_same_at_every_hint(text);
}

TEST(ParallelIngestEdgeTest, DimsHeaderInALaterChunk) {
  const std::string text =
      data_lines(0, 100) + "# dims: 9 9 500\n" + data_lines(100, 100);
  EXPECT_EQ(io::read_tns_text(text, 16).dims(),
            (std::vector<index_t>{9, 9, 500}));
  expect_same_at_every_hint(text);
  // Too small a header is reported on its own line from any chunk.
  expect_error_at_every_hint(
      data_lines(0, 100) + "# dims: 9 9 50\n" + data_lines(100, 100), 101,
      "dims header smaller than data");
}

TEST(ParallelIngestEdgeTest, ChunkWithoutDataLines) {
  // A block of comments, then one of blank lines, each spanning more
  // than a chunk at hints 3 and up, between two runs of data lines.
  std::string text = data_lines(0, 20);
  for (int i = 0; i < 300; ++i) text += "# nothing to see on this line\n";
  text += std::string(3000, '\n');
  text += data_lines(20, 20);
  const auto t = io::read_tns_text(text, 3);
  EXPECT_EQ(t.nnz(), 40u);
  expect_same_at_every_hint(text);
}

TEST(ParallelIngestEdgeTest, FinalLineWithoutNewline) {
  std::string text = data_lines(0, 150);
  text.pop_back();
  expect_same_at_every_hint(text);
  // Every line as short as a data line can be: each chunk's rows are
  // exactly its lines, the last one without a newline.
  std::string shortest;
  for (int i = 0; i < 100; ++i) shortest += "1 2 3 4\n";
  shortest.pop_back();
  EXPECT_EQ(io::read_tns_text(shortest, 16).nnz(), 100u);
  expect_same_at_every_hint(shortest);
}

TEST(ParallelIngestEdgeTest, MalformedHeaderBeforeFirstDataLineWins) {
  // The header's line is reported even when the first data line is
  // itself malformed, or lands chunks later.
  expect_error_at_every_hint("# c\n# dims: 10 x 10\n\n1 1 1 1.0\n", 2,
                             "dims header value is not a decimal integer");
  expect_error_at_every_hint("# dims: 1.5\n5\n", 1,
                             "dims header value is not a decimal integer");
  expect_error_at_every_hint("# dims: x\n1 2 3 4 5 6 7 8 9 1.0\n", 1,
                             "dims header value is not a decimal integer");
  std::string late = "\n";
  for (int i = 0; i < 200; ++i) late += "# padding comment\n";
  late += "# dims: 10 -1 10\n" + data_lines(0, 50);
  expect_error_at_every_hint(late, 202,
                             "dims header value is not a decimal integer");
  // With valid headers, a malformed first data line is the error.
  expect_error_at_every_hint("# dims: 9\n\n5\n1 1.0\n", 3,
                             "fewer than 2 fields");
  expect_error_at_every_hint("# c\n1 2 3 4 5 6 7 8 9 1.0\n", 2,
                             "too many modes");
}

TEST(ParallelIngestEdgeTest, OneAndEightModes) {
  std::uint64_t seed = 5;
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{500},
        std::vector<index_t>{3, 4, 5, 6, 7, 8, 9, 10}}) {
    GeneratorOptions opt;
    opt.dims = dims;
    opt.nnz = 600;
    opt.seed = seed++;
    const auto t = generate_random(opt);
    const auto text = tns_text_of(t);
    ASSERT_EQ(io::read_tns_text(text, 8).num_modes(), dims.size());
    expect_same_at_every_hint(text);
  }
}

TEST(ParallelIngestTest, FileRoundTripThroughReadTnsFile) {
  GeneratorOptions opt;
  opt.dims = {30, 20, 10};
  opt.nnz = 500;
  opt.seed = 77;
  const auto t = generate_random(opt);
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("amped_ingest_roundtrip_" + std::to_string(::getpid()) + ".tns"))
          .string();
  write_tns_file(t, path);
  // read_tns_file routes through the parallel ingest.
  const auto back = read_tns_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.nnz(), t.nnz());
  ASSERT_EQ(back.dims(), t.dims());
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(back.indices(m)[n], t.indices(m)[n]);
    }
    EXPECT_NEAR(back.values()[n], t.values()[n], 1e-5f);
  }
}

}  // namespace
}  // namespace amped
