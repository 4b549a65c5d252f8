#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "io/snapshot.hpp"
#include "io/tns_ingest.hpp"
#include "tensor/generator.hpp"
#include "tensor/tns_io.hpp"

namespace amped {
namespace {

TEST(TnsIoTest, ParsesFrosttText) {
  std::istringstream in(
      "# a comment\n"
      "1 1 1 2.5\n"
      "3 2 5 -1.0\n");
  auto t = read_tns(in);
  EXPECT_EQ(t.num_modes(), 3u);
  EXPECT_EQ(t.nnz(), 2u);
  // Dims inferred from the 1-based max per mode.
  EXPECT_EQ(t.dim(0), 3u);
  EXPECT_EQ(t.dim(1), 2u);
  EXPECT_EQ(t.dim(2), 5u);
  // 0-based after parsing.
  EXPECT_EQ(t.indices(0)[1], 2u);
  EXPECT_FLOAT_EQ(t.values()[0], 2.5f);
}

TEST(TnsIoTest, HonoursDimsHeader) {
  std::istringstream in(
      "# dims: 10 10 10\n"
      "1 1 1 1.0\n");
  auto t = read_tns(in);
  EXPECT_EQ(t.dim(0), 10u);
}

TEST(TnsIoTest, RejectsDimsHeaderSmallerThanData) {
  std::istringstream in(
      "# dims: 2 2 2\n"
      "5 1 1 1.0\n");
  EXPECT_THROW(read_tns(in), std::runtime_error);
}

TEST(TnsIoTest, RejectsZeroBasedIndices) {
  std::istringstream in("0 1 1 1.0\n");
  EXPECT_THROW(read_tns(in), std::runtime_error);
}

TEST(TnsIoTest, RejectsInconsistentModeCount) {
  std::istringstream in(
      "1 1 1 1.0\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_tns(in), std::runtime_error);
}

TEST(TnsIoTest, RejectsEmptyStream) {
  std::istringstream in("# only comments\n");
  EXPECT_THROW(read_tns(in), std::runtime_error);
}

TEST(TnsIoTest, TextRoundTrip) {
  GeneratorOptions opt;
  opt.dims = {20, 30, 10};
  opt.nnz = 200;
  opt.seed = 99;
  auto t = generate_random(opt);

  std::ostringstream out;
  write_tns(t, out);
  std::istringstream in(out.str());
  auto back = read_tns(in);

  ASSERT_EQ(back.nnz(), t.nnz());
  ASSERT_EQ(back.dims(), t.dims());
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(back.indices(m)[n], t.indices(m)[n]);
    }
    EXPECT_NEAR(back.values()[n], t.values()[n], 1e-5f);
  }
}

TEST(TnsIoTest, BinaryRoundTrip) {
  GeneratorOptions opt;
  opt.dims = {50, 40};
  opt.nnz = 500;
  opt.seed = 3;
  auto t = generate_random(opt);

  const auto path =
      (std::filesystem::temp_directory_path() /
       ("amped_io_test_" + std::to_string(::getpid()) + ".amptns"))
          .string();
  write_binary_file(t, path);
  auto back = read_binary_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(back.nnz(), t.nnz());
  ASSERT_EQ(back.dims(), t.dims());
  for (nnz_t n = 0; n < t.nnz(); ++n) {
    EXPECT_EQ(back.indices(0)[n], t.indices(0)[n]);
    EXPECT_EQ(back.indices(1)[n], t.indices(1)[n]);
    EXPECT_FLOAT_EQ(back.values()[n], t.values()[n]);
  }
}

TEST(TnsIoTest, BinaryRejectsBadMagic) {
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("amped_io_bad_" + std::to_string(::getpid()) + ".amptns"))
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTATENSORFILE----";
  }
  EXPECT_THROW(read_binary_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TnsIoTest, BinaryV1RejectsModeSizeBeyond32Bits) {
  // A v1 header whose mode size does not fit index_t must be refused, not
  // truncated: 2^32 + 5 would otherwise load as a 5-wide mode. Both the
  // v1 reader and the snapshot reader's v1 fallback give the v2 reader's
  // message.
  const auto path =
      (std::filesystem::temp_directory_path() /
       ("amped_io_wide_v1_" + std::to_string(::getpid()) + ".amptns"))
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    const char magic[8] = {'A', 'M', 'P', 'T', 'N', 'S', '0', '1'};
    const std::uint64_t header[] = {2, 1, (std::uint64_t{1} << 32) + 5, 3};
    const index_t indices[] = {0, 0};
    const value_t value = 1.0f;
    f.write(magic, sizeof(magic));
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
    f.write(reinterpret_cast<const char*>(indices), sizeof(indices));
    f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  for (const auto& read : {std::function<CooTensor()>(
                               [&] { return read_binary_file(path); }),
                           std::function<CooTensor()>([&] {
                             return io::read_snapshot_file(path);
                           })}) {
    try {
      read();
      ADD_FAILURE() << "a 2^32 + 5 mode loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "mode size exceeds 32-bit index space"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(TnsIoTest, ReadsFifoThroughTheSameParser) {
  // A FIFO cannot be mapped: read_tns_file reads it through the stream,
  // and the stream reader runs the parser the mapped path runs.
  GeneratorOptions opt;
  opt.dims = {30, 20, 10};
  opt.nnz = 300;
  opt.seed = 5;
  std::ostringstream out;
  write_tns(generate_random(opt), out);
  const std::string text = out.str();
  const auto path = (std::filesystem::temp_directory_path() /
                     ("amped_io_fifo_" + std::to_string(::getpid())))
                        .string();
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream fifo(path);
    fifo << text;
  });
  const CooTensor from_fifo = read_tns_file(path);
  writer.join();
  std::remove(path.c_str());

  const CooTensor from_text = io::read_tns_text(text, 3);
  ASSERT_EQ(from_fifo.dims(), from_text.dims());
  ASSERT_EQ(from_fifo.nnz(), from_text.nnz());
  for (std::size_t m = 0; m < from_text.num_modes(); ++m) {
    EXPECT_EQ(0, std::memcmp(from_fifo.indices(m).data(),
                             from_text.indices(m).data(),
                             from_text.nnz() * sizeof(index_t)));
  }
  EXPECT_EQ(0, std::memcmp(from_fifo.values().data(),
                           from_text.values().data(),
                           from_text.nnz() * sizeof(value_t)));
}

TEST(TnsIoTest, MissingFileThrows) {
  EXPECT_THROW(read_tns_file("/nonexistent/path/x.tns"), std::runtime_error);
  EXPECT_THROW(read_binary_file("/nonexistent/path/x.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace amped
