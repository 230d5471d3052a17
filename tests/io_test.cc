// Unit tests for markov/io: text parsing/serialization of matrices and
// trajectories, with file round-trips.

#include "markov/io.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace tcdp {
namespace {

TEST(ParseStochasticMatrix, ParsesCommaAndWhitespace) {
  auto m = ParseStochasticMatrix("0.5,0.5\n0.25 0.75\n");
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->size(), 2u);
  EXPECT_DOUBLE_EQ(m->At(1, 0), 0.25);
}

TEST(ParseStochasticMatrix, SkipsCommentsAndBlanks) {
  auto m = ParseStochasticMatrix(
      "# forward correlation\n\n0.9, 0.1\n  \n0.2, 0.8\n");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->size(), 2u);
}

TEST(ParseStochasticMatrix, RejectsRaggedRows) {
  auto m = ParseStochasticMatrix("0.5,0.5\n1.0\n");
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("ragged"), std::string::npos);
}

TEST(ParseStochasticMatrix, RejectsGarbageFields) {
  auto m = ParseStochasticMatrix("0.5,abc\n0.5,0.5\n");
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("line 1"), std::string::npos);
}

TEST(ParseStochasticMatrix, RejectsNonStochasticRows) {
  EXPECT_FALSE(ParseStochasticMatrix("0.5,0.6\n0.5,0.5\n").ok());
  EXPECT_FALSE(ParseStochasticMatrix("").ok());
}

TEST(SerializeStochasticMatrix, RoundTripsExactly) {
  auto original = StochasticMatrix::FromRows(
      {{0.123456789012345, 0.876543210987655}, {1.0 / 3, 2.0 / 3}});
  auto parsed = ParseStochasticMatrix(SerializeStochasticMatrix(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ApproxEquals(original, 1e-15));
}

// Every finite entry the printer writes reads back bitwise, subnormals
// included: strtod flags them ERANGE, but they are exact %.17g values,
// not overflow or underflow to 0.
TEST(SerializeStochasticMatrix, RoundTripsEdgeEntriesBitwise) {
  const double one_minus_ulp = std::nextafter(1.0, 0.0);
  const double denorm = std::numeric_limits<double>::denorm_min();
  auto original = StochasticMatrix::CreateExact(Matrix({
      {one_minus_ulp, 1.0 - one_minus_ulp, 0.0},
      {1.0, denorm, -0.0},
      {DBL_MIN, 1e-310, 1.0},
  }));
  ASSERT_TRUE(original.ok()) << original.status();
  const std::string text = SerializeStochasticMatrix(*original);
  EXPECT_NE(text.find("4.9406564584124654e-324"), std::string::npos) << text;
  auto parsed = ParseStochasticMatrixExact(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::vector<double>& want = original->matrix().data();
  const std::vector<double>& got = parsed->matrix().data();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0);
  EXPECT_EQ(SerializeStochasticMatrix(*parsed), text);
}

TEST(ParseStochasticMatrix, RefusesOutOfRangeNumbers) {
  EXPECT_FALSE(ParseStochasticMatrix("1,1e-400\n0,1\n").ok());
  EXPECT_FALSE(ParseStochasticMatrix("1,1e999\n0,1\n").ok());
  EXPECT_FALSE(ParseStochasticMatrix("1,-1e999\n0,1\n").ok());
  // Subnormals are in range, however they are spelled.
  EXPECT_TRUE(ParseStochasticMatrix("1,+5e-324\n0,1\n").ok());
  EXPECT_TRUE(ParseStochasticMatrix("1,0x1p-1074\n0,1\n").ok());
}

TEST(MatrixFileIo, SaveAndLoad) {
  const std::string path = "/tmp/tcdp_io_test_matrix.csv";
  auto m = StochasticMatrix::FromRows({{0.7, 0.3}, {0.4, 0.6}});
  ASSERT_TRUE(SaveStochasticMatrix(m, path).ok());
  auto loaded = LoadStochasticMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->ApproxEquals(m, 1e-15));
  std::remove(path.c_str());
}

TEST(MatrixFileIo, LoadMissingFileIsNotFound) {
  auto m = LoadStochasticMatrix("/tmp/definitely_missing_tcdp_file.csv");
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

TEST(ParseTrajectories, ParsesMultipleUsers) {
  auto t = ParseTrajectories("0,1,2\n2 2 0\n# comment\n");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ((*t)[0], (Trajectory{0, 1, 2}));
  EXPECT_EQ((*t)[1], (Trajectory{2, 2, 0}));
}

TEST(ParseTrajectories, EnforcesDomainWhenGiven) {
  EXPECT_TRUE(ParseTrajectories("0,1\n", 2).ok());
  auto bad = ParseTrajectories("0,5\n", 2);
  EXPECT_FALSE(bad.ok());
}

TEST(ParseTrajectories, RejectsNegativeAndGarbage) {
  EXPECT_FALSE(ParseTrajectories("0,-1\n").ok());
  EXPECT_FALSE(ParseTrajectories("a,b\n").ok());
  EXPECT_FALSE(ParseTrajectories("").ok());
}

TEST(TrajectoryFileIo, RoundTrip) {
  const std::string path = "/tmp/tcdp_io_test_traj.csv";
  std::vector<Trajectory> trajs = {{0, 1, 0}, {2, 2, 2}, {1}};
  ASSERT_TRUE(SaveTrajectories(trajs, path).ok());
  auto loaded = LoadTrajectories(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, trajs);
  std::remove(path.c_str());
}

TEST(SerializeTrajectories, CustomSeparator) {
  EXPECT_EQ(SerializeTrajectories({{1, 2, 3}}, ' '), "1 2 3\n");
}

}  // namespace
}  // namespace tcdp
