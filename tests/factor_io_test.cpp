#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tensor/factor_io.hpp"
#include "util/random.hpp"

namespace amped {
namespace {

// `name` with this process's id before its extension, so two runs of the
// suite at once do not share files.
std::string temp_path(const std::string& name) {
  const std::filesystem::path p(name);
  return (std::filesystem::temp_directory_path() /
          (p.stem().string() + "_" + std::to_string(::getpid()) +
           p.extension().string()))
      .string();
}

CpdModel make_model() {
  Rng rng(31);
  CpdModel model;
  model.fit = 0.8725;
  model.lambda = {3.5, 1.25, 0.5};
  for (std::size_t rows : {10, 20, 15}) {
    DenseMatrix f(rows, 3);
    f.fill_random(rng, -1.0f, 1.0f);
    model.factors.push_back(std::move(f));
  }
  return model;
}

TEST(FactorIoTest, BinaryRoundTrip) {
  const auto model = make_model();
  const auto path = temp_path("amped_model.ampfac");
  write_model_file(model, path);
  const auto back = read_model_file(path);
  std::remove(path.c_str());

  EXPECT_DOUBLE_EQ(back.fit, model.fit);
  ASSERT_EQ(back.lambda.size(), 3u);
  EXPECT_DOUBLE_EQ(back.lambda[1], 1.25);
  ASSERT_EQ(back.factors.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_DOUBLE_EQ(
        DenseMatrix::max_abs_diff(back.factors[m], model.factors[m]), 0.0);
  }
}

TEST(FactorIoTest, RejectsBadMagic) {
  const auto path = temp_path("amped_model_bad.ampfac");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTAFACTORFILE--------------";
  }
  EXPECT_THROW(read_model_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(FactorIoTest, MissingFileThrows) {
  EXPECT_THROW(read_model_file("/nonexistent/m.ampfac"),
               std::runtime_error);
  EXPECT_THROW(read_matrix_text("/nonexistent/m.txt"), std::runtime_error);
}

TEST(FactorIoTest, TextMatrixRoundTrip) {
  Rng rng(32);
  DenseMatrix m(7, 4);
  m.fill_random(rng, -2.0f, 2.0f);
  const auto path = temp_path("amped_matrix.txt");
  write_matrix_text(m, path);
  const auto back = read_matrix_text(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.rows(), 7u);
  ASSERT_EQ(back.cols(), 4u);
  EXPECT_LT(DenseMatrix::max_abs_diff(m, back), 1e-4);
}

TEST(FactorIoTest, TextRejectsRaggedRows) {
  const auto path = temp_path("amped_ragged.txt");
  {
    std::ofstream f(path);
    f << "1 2 3\n1 2\n";
  }
  EXPECT_THROW(read_matrix_text(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amped
