// Unit and property tests for the linalg substrate.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/lu.hpp"
#include "core/simd.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pinv_lanes.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "test_contracts.hpp"

namespace {

using stf::la::CMatrix;
using stf::la::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = dist(gen);
  return m;
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

std::vector<double> sub(const std::vector<double>& a,
                        const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

double norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return std::sqrt(acc);
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

// ---------------------------------------------------------------- Matrix --

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_CONTRACT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  Matrix scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled(1, 1), 8.0);
}

TEST(Matrix, MatmulKnownResult) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_CONTRACT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatvecKnownResult) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<double> x{1.0, 1.0};
  auto y = a * x;
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, TransposeInvolution) {
  Matrix a = random_matrix(4, 7, 11);
  EXPECT_EQ(max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  Matrix a = random_matrix(5, 5, 3);
  Matrix i = Matrix::identity(5);
  EXPECT_LT(max_abs_diff(a * i, a), 1e-15);
  EXPECT_LT(max_abs_diff(i * a, a), 1e-15);
}

TEST(Matrix, RowColRoundTrip) {
  Matrix a = random_matrix(3, 4, 7);
  auto r = a.row(1);
  auto c = a.col(2);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(r[2], a(1, 2));
  EXPECT_DOUBLE_EQ(c[1], a(1, 2));
  Matrix b(3, 4);
  for (std::size_t i = 0; i < 3; ++i) b.set_row(i, a.row(i));
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
}

// -------------------------------------------------------------------- LU --

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  std::vector<double> b{3.0, 5.0};
  auto x = stf::la::lu_solve(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(stf::la::LuDecomposition<double>{a}, std::runtime_error);
}

TEST(Lu, DeterminantKnown) {
  Matrix a{{4.0, 3.0}, {6.0, 3.0}};
  stf::la::LuDecomposition<double> lu(a);
  EXPECT_NEAR(lu.determinant(), -6.0, 1e-12);
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  CMatrix a{{C(1.0, 1.0), C(2.0, 0.0)}, {C(0.0, -1.0), C(1.0, 0.0)}};
  std::vector<C> xtrue{C(1.0, 2.0), C(-1.0, 0.5)};
  auto b = a * xtrue;
  auto x = stf::la::lu_solve(a, b);
  EXPECT_NEAR(std::abs(x[0] - xtrue[0]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - xtrue[1]), 0.0, 1e-12);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  Matrix a = random_matrix(6, 6, 17);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 3.0;  // well-conditioned
  Matrix inv = stf::la::inverse(a);
  EXPECT_LT(max_abs_diff(a * inv, Matrix::identity(6)), 1e-10);
}

// Property sweep: random solve round-trips over several sizes/seeds.
class LuRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LuRoundTrip, SolveRecoversX) {
  const int seed = GetParam();
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 9);
  Matrix a = random_matrix(n, n, static_cast<unsigned>(seed));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 2.0;
  auto xtrue = random_vector(n, static_cast<unsigned>(seed + 1000));
  auto b = a * xtrue;
  auto x = stf::la::lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRoundTrip, ::testing::Range(0, 20));

// -------------------------------------------------------------- Cholesky --

TEST(Cholesky, FactorOfKnownSpdMatrix) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  stf::la::Cholesky chol(a);
  const Matrix& l = chol.factor();
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, NonSpdThrows) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // indefinite
  EXPECT_THROW(stf::la::Cholesky{a}, std::runtime_error);
}

class CholeskyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRoundTrip, SolveRecoversX) {
  const int seed = GetParam();
  const std::size_t n = 2 + static_cast<std::size_t>(seed % 7);
  Matrix g = random_matrix(n + 3, n, static_cast<unsigned>(seed));
  Matrix a = stf::la::gram(g);  // SPD with high probability
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;
  auto xtrue = random_vector(n, static_cast<unsigned>(seed + 99));
  auto b = a * xtrue;
  auto x = stf::la::cholesky_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CholeskyRoundTrip, ::testing::Range(0, 15));

// -------------------------------------------------------------------- QR --

TEST(Qr, ThinFactorsReconstructA) {
  Matrix a = random_matrix(8, 4, 23);
  stf::la::QrDecomposition qr(a);
  Matrix recon = qr.q_thin() * qr.r();
  EXPECT_LT(max_abs_diff(recon, a), 1e-12);
}

TEST(Qr, QHasOrthonormalColumns) {
  Matrix a = random_matrix(10, 5, 29);
  stf::la::QrDecomposition qr(a);
  Matrix q = qr.q_thin();
  Matrix qtq = q.transposed() * q;
  EXPECT_LT(max_abs_diff(qtq, Matrix::identity(5)), 1e-12);
}

TEST(Qr, WideMatrixThrows) {
  EXPECT_CONTRACT_THROW(stf::la::QrDecomposition{random_matrix(3, 5, 1)},
                        std::invalid_argument);
}

TEST(Qr, ExactSolveOnSquareSystem) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  std::vector<double> b{2.0, 8.0};
  auto x = stf::la::QrDecomposition(a).solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Qr, LeastSquaresResidualIsOrthogonalToColumns) {
  Matrix a = random_matrix(12, 4, 31);
  auto b = random_vector(12, 37);
  auto x = stf::la::QrDecomposition(a).solve(b);
  auto ax = a * x;
  std::vector<double> r = sub(b, ax);
  // Normal equations: A^T r == 0 at the least-squares optimum.
  auto atr = stf::la::at_b(a, r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Qr, RankDeficientDetected) {
  Matrix a(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = static_cast<double>(i);
    a(i, 1) = 2.0 * static_cast<double>(i);  // col 1 = 2 * col 0
    a(i, 2) = 1.0;
  }
  stf::la::QrDecomposition qr(a);
  EXPECT_FALSE(qr.full_rank());
  EXPECT_THROW(qr.solve(std::vector<double>(6, 1.0)), std::runtime_error);
}

// ------------------------------------------------------------------- SVD --

TEST(Svd, DiagonalMatrixSingularValues) {
  Matrix a{{3.0, 0.0}, {0.0, 2.0}};
  auto d = stf::la::svd(a);
  ASSERT_EQ(d.s.size(), 2u);
  EXPECT_NEAR(d.s[0], 3.0, 1e-12);
  EXPECT_NEAR(d.s[1], 2.0, 1e-12);
}

TEST(Svd, ReconstructsTallMatrix) {
  Matrix a = random_matrix(9, 4, 41);
  auto d = stf::la::svd(a);
  Matrix sigma(4, 4);
  for (std::size_t i = 0; i < 4; ++i) sigma(i, i) = d.s[i];
  Matrix recon = d.u * sigma * d.v.transposed();
  EXPECT_LT(max_abs_diff(recon, a), 1e-10);
}

TEST(Svd, ReconstructsWideMatrix) {
  Matrix a = random_matrix(3, 7, 43);
  auto d = stf::la::svd(a);
  Matrix sigma(3, 3);
  for (std::size_t i = 0; i < 3; ++i) sigma(i, i) = d.s[i];
  Matrix recon = d.u * sigma * d.v.transposed();
  EXPECT_LT(max_abs_diff(recon, a), 1e-10);
}

TEST(Svd, SingularValuesDescendingAndNonNegative) {
  Matrix a = random_matrix(6, 6, 47);
  auto d = stf::la::svd(a);
  for (std::size_t i = 1; i < d.s.size(); ++i) {
    EXPECT_GE(d.s[i - 1], d.s[i]);
    EXPECT_GE(d.s[i], 0.0);
  }
}

TEST(Svd, RankOfRankDeficientMatrix) {
  Matrix a(5, 3);
  auto c0 = random_vector(5, 51);
  for (std::size_t i = 0; i < 5; ++i) {
    a(i, 0) = c0[i];
    a(i, 1) = 3.0 * c0[i];
    a(i, 2) = -c0[i];
  }
  auto d = stf::la::svd(a);
  EXPECT_EQ(d.rank(1e-10), 1u);
}

TEST(Svd, OrthonormalFactors) {
  Matrix a = random_matrix(8, 5, 53);
  auto d = stf::la::svd(a);
  EXPECT_LT(max_abs_diff(d.u.transposed() * d.u, Matrix::identity(5)), 1e-10);
  EXPECT_LT(max_abs_diff(d.v.transposed() * d.v, Matrix::identity(5)), 1e-10);
}

// Moore-Penrose axioms as a property sweep over random shapes.
class PinvAxioms : public ::testing::TestWithParam<int> {};

TEST_P(PinvAxioms, SatisfiesAllFour) {
  const int seed = GetParam();
  const std::size_t m = 2 + static_cast<std::size_t>((seed * 7) % 6);
  const std::size_t n = 2 + static_cast<std::size_t>((seed * 3) % 6);
  Matrix a = random_matrix(m, n, static_cast<unsigned>(100 + seed));
  Matrix ap = stf::la::pinv(a);
  EXPECT_LT(max_abs_diff(a * ap * a, a), 1e-9);                        // AXA=A
  EXPECT_LT(max_abs_diff(ap * a * ap, ap), 1e-9);                      // XAX=X
  EXPECT_LT(max_abs_diff((a * ap).transposed(), a * ap), 1e-9);        // (AX)^T
  EXPECT_LT(max_abs_diff((ap * a).transposed(), ap * a), 1e-9);        // (XA)^T
}

INSTANTIATE_TEST_SUITE_P(Shapes, PinvAxioms, ::testing::Range(0, 18));

// ------------------------------------------------------------ pinv_lanes --

// Vector dispatch on for the test's scope, restored to the environment
// default after it.
struct SimdOn {
  SimdOn() { stf::core::simd::set_enabled(true); }
  ~SimdOn() { stf::core::simd::clear_enabled_override(); }
};

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// pinv_lanes() over `group` reproduces la::pinv's bits matrix by matrix.
void expect_pinv_bits(const std::vector<Matrix>& group,
                      const std::string& what) {
  std::vector<Matrix> out(group.size());
  stf::la::pinv_lanes(group, out);
  for (std::size_t i = 0; i < group.size(); ++i)
    EXPECT_TRUE(same_bits(out[i], stf::la::pinv(group[i])))
        << what << ": matrix " << i << " of " << group.size();
}

// An m x n matrix with orthogonal columns (column j is e_j scaled by
// j + 1): no pair needs a rotation. Its off-diagonal zeros are negative,
// which a c = 1, s = 0 "rotation" would turn positive.
Matrix orthogonal_columns(std::size_t m, std::size_t n) {
  Matrix a(m, n, -0.0);
  for (std::size_t j = 0; j < n; ++j) a(j, j) = static_cast<double>(j + 1);
  return a;
}

TEST(PinvLanes, RandomTallMatricesMatchPinvAtEveryGroupSize) {
  const SimdOn simd_on;
  const std::size_t w = stf::la::pinv_lane_width();
  // Every short group 1 .. w - 1, a full group, and groups that split.
  for (std::size_t g = 1; g <= 2 * w + 1; ++g) {
    std::vector<Matrix> group;
    for (std::size_t i = 0; i < g; ++i)
      group.push_back(
          random_matrix(16, 10, static_cast<unsigned>(500 + 37 * g + i)));
    expect_pinv_bits(group, "16 x 10, group of " + std::to_string(g));
  }
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{4, 4},
                             {7, 3},
                             {30, 5},
                             {9, 1}}) {
    std::vector<Matrix> group;
    for (std::size_t i = 0; i < w + 1; ++i)
      group.push_back(random_matrix(m, n, static_cast<unsigned>(900 + i)));
    expect_pinv_bits(group, std::to_string(m) + " x " + std::to_string(n));
  }
}

TEST(PinvLanes, RankDeficientZeroColumnAndOrthogonalLanesMatch) {
  const SimdOn simd_on;
  Matrix duplicate = random_matrix(12, 6, 71);
  for (std::size_t i = 0; i < 12; ++i) duplicate(i, 4) = duplicate(i, 1);
  Matrix zero_column = random_matrix(12, 6, 73);
  for (std::size_t i = 0; i < 12; ++i) zero_column(i, 2) = 0.0;
  const Matrix orthogonal = orthogonal_columns(12, 6);
  const Matrix zero(12, 6);
  const Matrix random = random_matrix(12, 6, 79);
  // Each special lane beside a lane that rotates, and all of them together.
  for (const Matrix* special : std::initializer_list<const Matrix*>{
           &duplicate, &zero_column, &orthogonal, &zero})
    expect_pinv_bits({random, *special}, "special lane beside a random one");
  expect_pinv_bits({duplicate, zero_column, orthogonal, zero, random},
                   "every special lane in one batch");
  expect_pinv_bits({orthogonal, orthogonal_columns(12, 6)},
                   "no lane rotates");
}

TEST(PinvLanes, OneLaneNeedingMoreSweepsThanTheRestMatches) {
  const SimdOn simd_on;
  // Nearly parallel columns take many sweeps; orthogonal ones take none.
  Matrix slow = random_matrix(16, 10, 83);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 1; j < 10; ++j)
      slow(i, j) = slow(i, 0) + 1e-6 * slow(i, j);
  std::vector<Matrix> group(stf::la::pinv_lane_width(),
                            orthogonal_columns(16, 10));
  group.back() = slow;
  if (group.size() == 1)
    group.insert(group.begin(), orthogonal_columns(16, 10));
  expect_pinv_bits(group, "one slow lane");
  std::reverse(group.begin(), group.end());
  expect_pinv_bits(group, "one slow lane first");
}

TEST(PinvLanes, MixedShapesAndWideInputFallBackToPinv) {
  const SimdOn simd_on;
  expect_pinv_bits({random_matrix(16, 10, 89), random_matrix(12, 10, 97),
                    random_matrix(16, 10, 101)},
                   "mixed shapes");
  expect_pinv_bits({random_matrix(4, 9, 103), random_matrix(4, 9, 107)},
                   "wide");
  std::vector<Matrix> out(1);
  EXPECT_CONTRACT_THROW(stf::la::pinv_lanes({}, out), std::invalid_argument);
  std::vector<Matrix> in{random_matrix(5, 3, 109)};
  EXPECT_CONTRACT_THROW(stf::la::pinv_lanes(in, out, -1.0),
                        std::invalid_argument);
}

TEST(PinvLanes, SimdOffTakesPinvPerMatrix) {
  stf::core::simd::set_enabled(false);
  EXPECT_EQ(stf::la::pinv_lane_width(), 1u);
  expect_pinv_bits({random_matrix(16, 10, 113), random_matrix(16, 10, 127)},
                   "simd off");
  stf::core::simd::clear_enabled_override();
}

TEST(Svd, LstsqMatchesQrOnFullRank) {
  Matrix a = random_matrix(10, 4, 61);
  auto b = random_vector(10, 67);
  auto x_qr = stf::la::QrDecomposition(a).solve(b);
  auto x_svd = stf::la::svd_lstsq(a, b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x_qr[i], x_svd[i], 1e-9);
}

TEST(Svd, LstsqMinimumNormOnUnderdetermined) {
  // x + y = 2 has minimum-norm solution (1, 1).
  Matrix a{{1.0, 1.0}};
  auto x = stf::la::svd_lstsq(a, {2.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Svd, ConditionNumberOfIdentityIsOne) {
  auto d = stf::la::svd(Matrix::identity(4));
  EXPECT_NEAR(d.condition_number(), 1.0, 1e-12);
}

// ----------------------------------------------------------------- lstsq --

TEST(Ridge, ZeroLambdaMatchesLstsq) {
  Matrix a = random_matrix(9, 3, 71);
  auto b = random_vector(9, 73);
  auto x0 = stf::la::lstsq(a, b);
  auto x1 = stf::la::ridge(a, b, 0.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x0[i], x1[i], 1e-9);
}

TEST(Ridge, ShrinksSolutionNorm) {
  Matrix a = random_matrix(20, 5, 79);
  auto b = random_vector(20, 83);
  auto x0 = stf::la::ridge(a, b, 0.0);
  auto x1 = stf::la::ridge(a, b, 10.0);
  EXPECT_LT(norm2(x1), norm2(x0));
}

TEST(Ridge, NegativeLambdaThrows) {
  Matrix a = random_matrix(4, 2, 89);
  EXPECT_CONTRACT_THROW(stf::la::ridge(a, random_vector(4, 90), -1.0),
                        std::invalid_argument);
}

TEST(Ridge, LargeLambdaDrivesSolutionTowardZero) {
  Matrix a = random_matrix(15, 4, 97);
  auto b = random_vector(15, 101);
  auto x = stf::la::ridge(a, b, 1e9);
  EXPECT_LT(norm2(x), 1e-6);
}

TEST(Gram, MatchesExplicitProduct) {
  Matrix a = random_matrix(7, 3, 103);
  EXPECT_LT(max_abs_diff(stf::la::gram(a), a.transposed() * a), 1e-13);
}

}  // namespace
