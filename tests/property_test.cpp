// Cross-module property-based tests (parameterized sweeps over random
// instances): invariants that must hold for *every* input, not just the
// hand-picked cases of the unit suites.
#include <cmath>
#include <complex>
#include <numbers>

#include <gtest/gtest.h>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/netlist.hpp"
#include "dsp/iir.hpp"
#include "dsp/pwl.hpp"
#include "linalg/lu.hpp"
#include "linalg/svd.hpp"
#include "rf/dut.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

// ------------------------------------------------------ linalg properties --

class MatrixAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(MatrixAlgebra, TransposeOfProduct) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 5);
  la::Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  const la::Matrix lhs = (a * b).transposed();
  const la::Matrix rhs = b.transposed() * a.transposed();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(lhs(i, j), rhs(i, j), 1e-12);
}

TEST_P(MatrixAlgebra, DeterminantIsMultiplicative) {
  stats::Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 4);
  la::Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  const double da = la::LuDecomposition<double>(a).determinant();
  const double db = la::LuDecomposition<double>(b).determinant();
  const double dab = la::LuDecomposition<double>(a * b).determinant();
  EXPECT_NEAR(dab, da * db, 1e-9 * (1.0 + std::abs(da * db)));
}

TEST_P(MatrixAlgebra, SpectralNormBoundsMatVec) {
  stats::Rng rng(static_cast<std::uint64_t>(200 + GetParam()));
  const std::size_t m = 3 + static_cast<std::size_t>(GetParam() % 4);
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 5);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  const double s_max = la::svd(a).s.front();
  for (int t = 0; t < 5; ++t) {
    std::vector<double> x(n);
    double xn = 0.0;
    for (auto& v : x) {
      v = rng.normal();
      xn += v * v;
    }
    xn = std::sqrt(xn);
    const auto y = a * x;
    double yn = 0.0;
    for (double v : y) yn += v * v;
    yn = std::sqrt(yn);
    EXPECT_LE(yn, s_max * xn * (1.0 + 1e-9));
  }
}

TEST_P(MatrixAlgebra, DeterminantMagnitudeEqualsSingularValueProduct) {
  stats::Rng rng(static_cast<std::uint64_t>(300 + GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 4);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  const double det = la::LuDecomposition<double>(a).determinant();
  double prod = 1.0;
  for (double s : la::svd(a).s) prod *= s;
  EXPECT_NEAR(std::abs(det), prod, 1e-9 * (1.0 + prod));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixAlgebra, ::testing::Range(0, 12));

// -------------------------------------------------------- dsp properties --

class ButterworthSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ButterworthSweep, CutoffAndMonotonicity) {
  const auto [order, fc_frac] = GetParam();
  const double fs = 1.0;
  const double fc = fc_frac * fs;
  const auto f = dsp::butterworth_lowpass(order, fc, fs);
  EXPECT_NEAR(std::abs(f.response(0.0, fs)), 1.0, 1e-9);
  EXPECT_NEAR(20.0 * std::log10(std::abs(f.response(fc, fs))), -3.0103,
              0.02);
  double prev = std::abs(f.response(0.0, fs));
  for (double freq = 0.01 * fs; freq < 0.49 * fs; freq += 0.01 * fs) {
    const double cur = std::abs(f.response(freq, fs));
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndCutoffs, ButterworthSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8),
                       ::testing::Values(0.05, 0.1, 0.2)));

class PwlSampling : public ::testing::TestWithParam<int> {};

TEST_P(PwlSampling, RenderedSamplesMatchPointEvaluation) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n_bp = 3 + static_cast<std::size_t>(GetParam() % 14);
  std::vector<double> values(n_bp);
  for (auto& v : values) v = rng.uniform(-1.0, 1.0);
  const auto w = dsp::PwlWaveform::uniform(1e-3, values);
  const double fs = rng.uniform(5e3, 500e3);
  const auto rendered = w.render(fs);
  for (std::size_t i = 0; i < rendered.size(); i += 7)
    EXPECT_DOUBLE_EQ(rendered[i], w.sample(static_cast<double>(i) / fs));
  // Peak bound: interpolation never exceeds breakpoint extrema.
  for (double v : rendered) EXPECT_LE(std::abs(v), w.peak() + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PwlSampling, ::testing::Range(0, 10));

// ---------------------------------------------------- circuit properties --

// Random passive RC ladder between nodes n1..n5; reciprocity: the transfer
// from a current injection at node a to the voltage at node b equals the
// transfer from b to a (passive networks are reciprocal).
class Reciprocity : public ::testing::TestWithParam<int> {};

TEST_P(Reciprocity, PassiveNetworkIsReciprocal) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  circuit::Netlist nl;
  const char* nodes[] = {"n1", "n2", "n3", "n4", "n5"};
  // Ladder resistors along the chain plus random shunt R/C.
  for (int i = 0; i < 4; ++i)
    nl.add_resistor(std::string("R").append(std::to_string(i)), nodes[i],
                    nodes[i + 1], rng.uniform(10.0, 10e3));
  for (int i = 0; i < 5; ++i) {
    nl.add_resistor(std::string("RS").append(std::to_string(i)), nodes[i],
                    "0", rng.uniform(100.0, 100e3));
    nl.add_capacitor(std::string("CS").append(std::to_string(i)), nodes[i],
                     "0", rng.uniform(1e-12, 1e-9));
  }
  const auto dc = circuit::solve_dc(nl);
  const circuit::AcAnalysis ac(nl, dc);
  const double freq = rng.uniform(1e3, 100e6);

  const circuit::NodeId a = nl.find_node("n1");
  const circuit::NodeId b = nl.find_node("n4");
  const auto va = ac.solve_injections(freq, {{0, a, {1.0, 0.0}}});
  const auto vb = ac.solve_injections(freq, {{0, b, {1.0, 0.0}}});
  const auto t_ab = va[static_cast<std::size_t>(b)];
  const auto t_ba = vb[static_cast<std::size_t>(a)];
  EXPECT_NEAR(std::abs(t_ab - t_ba), 0.0, 1e-9 * (1.0 + std::abs(t_ab)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Reciprocity, ::testing::Range(0, 10));

class PassiveAttenuation : public ::testing::TestWithParam<int> {};

TEST_P(PassiveAttenuation, ResistiveNetworkNeverAmplifies) {
  stats::Rng rng(static_cast<std::uint64_t>(50 + GetParam()));
  circuit::Netlist nl;
  nl.add_vsource("VS", "in", "0", 0.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "a", rng.uniform(1.0, 10e3));
  nl.add_resistor("R2", "a", "b", rng.uniform(1.0, 10e3));
  nl.add_resistor("R3", "a", "0", rng.uniform(1.0, 10e3));
  nl.add_resistor("R4", "b", "0", rng.uniform(1.0, 10e3));
  const auto dc = circuit::solve_dc(nl);
  const circuit::AcAnalysis ac(nl, dc);
  const auto v = ac.solve(1e6);
  for (std::size_t n = 1; n <= nl.node_count(); ++n)
    EXPECT_LE(std::abs(v[n]), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassiveAttenuation, ::testing::Range(0, 10));

TEST(AcDcConsistency, AcAtNearZeroFrequencyMatchesDcTransfer) {
  // A resistive network's AC response at ~0 Hz equals the incremental DC
  // transfer.
  circuit::Netlist nl;
  nl.add_vsource("VS", "in", "0", 2.0, {1.0, 0.0});
  nl.add_resistor("R1", "in", "mid", 1200.0);
  nl.add_resistor("R2", "mid", "0", 800.0);
  const auto dc = circuit::solve_dc(nl);
  const circuit::AcAnalysis ac(nl, dc);
  const auto v = ac.solve(1e-3);
  EXPECT_NEAR(std::abs(v[nl.find_node("mid")]), 800.0 / 2000.0, 1e-9);
  EXPECT_NEAR(dc.voltage(nl.find_node("mid")), 2.0 * 800.0 / 2000.0, 1e-6);
}

// --------------------------------------------------------- rf properties --

class EnvelopePower : public ::testing::TestWithParam<int> {};

TEST_P(EnvelopePower, IdealGainScalesPowerByGainSquared) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  rf::EnvelopeSignal in;
  in.fs = 1e6;
  in.x.resize(256);
  for (auto& v : in.x) v = rf::Cplx(rng.normal(), rng.normal());
  const rf::Cplx g(rng.normal(), rng.normal());
  rf::IdealGainDut dut(g);
  const auto out = dut.process(in, nullptr);
  EXPECT_NEAR(rf::envelope_power(out),
              std::norm(g) * rf::envelope_power(in),
              1e-9 * std::norm(g) * rf::envelope_power(in));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopePower, ::testing::Range(0, 8));

class CompressionMonotone : public ::testing::TestWithParam<int> {};

TEST_P(CompressionMonotone, SaturatingAmAmNeverFoldsOver) {
  // Output amplitude must be non-decreasing in input amplitude -- the
  // property the saturating model was adopted for.
  stats::Rng rng(static_cast<std::uint64_t>(20 + GetParam()));
  const double a_ip3 = rng.uniform(0.05, 1.0);
  rf::BehavioralLna dut({rng.uniform(1.0, 10.0), 0.0}, a_ip3, 0.0);
  double prev = 0.0;
  for (double amp = 0.0; amp <= 5.0 * a_ip3; amp += 0.05 * a_ip3) {
    rf::EnvelopeSignal in;
    in.fs = 1e6;
    in.x = {rf::Cplx(amp, 0.0)};
    const double out = std::abs(dut.process(in, nullptr).x[0]);
    EXPECT_GE(out, prev - 1e-12);
    prev = out;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionMonotone, ::testing::Range(0, 8));

}  // namespace
