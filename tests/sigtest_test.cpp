// Tests for the signature-test core: acquisition, sensitivity, the
// Eq. 8-10 objective, calibration regression.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "rf/dut.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/objective.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf::sigtest;
using stf::rf::Cplx;

stf::dsp::PwlWaveform test_stimulus(double duration, double amp = 0.2) {
  return stf::dsp::PwlWaveform::uniform(
      duration, {0.0, amp, -amp, amp / 2.0, -amp / 2.0, amp, 0.0, -amp, 0.0});
}

// ------------------------------------------------------------- acquisition --

TEST(Acquisition, SignatureLengthMatchesAcquire) {
  const auto cfg = SignatureTestConfig::simulation_study();
  SignatureAcquirer acq(cfg, 16);
  stf::rf::IdealGainDut dut(Cplx(2.0, 0.0));
  const auto sig = acq.acquire(dut, test_stimulus(cfg.capture_s), nullptr);
  EXPECT_EQ(sig.size(), acq.signature_length());
  EXPECT_EQ(sig.size(), 16u);
}

TEST(Acquisition, NoiselessAcquisitionIsDeterministic) {
  const auto cfg = SignatureTestConfig::simulation_study();
  SignatureAcquirer acq(cfg, 16);
  stf::rf::IdealGainDut dut(Cplx(2.0, 0.0));
  const auto a = acq.acquire(dut, test_stimulus(cfg.capture_s), nullptr);
  const auto b = acq.acquire(dut, test_stimulus(cfg.capture_s), nullptr);
  EXPECT_EQ(a, b);
}

TEST(Acquisition, SignatureScalesWithDutGain) {
  // Linearized mixers: the property under test is pipeline linearity in
  // the DUT gain, not mixer compression.
  auto cfg = SignatureTestConfig::simulation_study();
  cfg.board.up_mixer.iip3_dbm = 300.0;
  cfg.board.down_mixer.iip3_dbm = 300.0;
  SignatureAcquirer acq(cfg, 16);
  stf::rf::IdealGainDut g1(Cplx(1.0, 0.0));
  stf::rf::IdealGainDut g2(Cplx(2.0, 0.0));
  const auto s1 = acq.acquire(g1, test_stimulus(cfg.capture_s), nullptr);
  const auto s2 = acq.acquire(g2, test_stimulus(cfg.capture_s), nullptr);
  // The mixers compress slightly at the higher drive, so scaling is linear
  // only to a fraction of a percent.
  for (std::size_t i = 0; i < s1.size(); ++i)
    EXPECT_NEAR(s2[i], 2.0 * s1[i], 1e-9 + 2e-3 * s1[i]);
}

// The paper's robustness claim (Section 2.1): the production hazard is a
// *small* random fluctuation of the LO path phase (cable lengths change by
// fractions of the 0.75 cm quarter-wave at 10 GHz). Near the Eq. 4 null
// the basic configuration's signature swings wildly with such a
// fluctuation; the offset-LO + FFT-magnitude configuration (Fig. 3)
// changes only marginally at ANY nominal phase.
namespace phase_robustness {

// Relative signature change caused by a small phase fluctuation dphi on
// top of the nominal path phase phi0.
double rel_change(SignatureTestConfig cfg, double phi0, double dphi) {
  stf::rf::IdealGainDut dut(Cplx(3.0, 0.0));
  cfg.board.path_phase_rad = phi0;
  const auto a = SignatureAcquirer(cfg, 16).acquire(
      dut, test_stimulus(cfg.capture_s), nullptr);
  cfg.board.path_phase_rad = phi0 + dphi;
  const auto b = SignatureAcquirer(cfg, 16).acquire(
      dut, test_stimulus(cfg.capture_s), nullptr);
  double ref = 0.0, diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ref += a[i] * a[i];
    diff += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(diff / (ref + 1e-30));
}

const double kPhiGrid[] = {0.0, 0.4, 0.8, 1.2, M_PI / 2.0 - 0.1, 2.0, 2.6};

double worst_case(const SignatureTestConfig& cfg, double dphi) {
  double worst = 0.0;
  for (double phi0 : kPhiGrid)
    worst = std::max(worst, rel_change(cfg, phi0, dphi));
  return worst;
}

}  // namespace phase_robustness

TEST(Acquisition, WorstCasePhaseSensitivityMuchLowerWithOffsetMagnitude) {
  // The production hazard is a small random fluctuation of the LO path
  // phase on top of an arbitrary (uncontrolled) nominal phi0. Near the
  // Eq. 4 null the basic Fig. 2 configuration's signature swings by ~100%;
  // the offset-LO + FFT-magnitude configuration (Fig. 3) is bounded at a
  // modest level for every phi0.
  const double dphi = 0.2;

  auto basic = SignatureTestConfig::simulation_study();
  basic.board.lo_offset_hz = 0.0;
  basic.use_fft_magnitude = false;

  const auto robust = SignatureTestConfig::simulation_study();

  const double worst_basic = phase_robustness::worst_case(basic, dphi);
  const double worst_robust = phase_robustness::worst_case(robust, dphi);
  EXPECT_LT(worst_robust, 0.25);
  EXPECT_GT(worst_basic, 1.0);  // ~total signature change near the null
  EXPECT_GT(worst_basic, 5.0 * worst_robust);
}

TEST(Acquisition, PhaseInvarianceTightWhenOffsetExceedsBandwidth) {
  // Hardware-study condition: the stimulus core bandwidth (~1 kHz steps)
  // sits well below the 100 kHz LO offset, so the Eq. 5 magnitude trick
  // holds to a few percent (PWL corner spectra decay only as 1/f^2, which
  // leaves a small overlap residual -- contrast with the total collapse of
  // the Eq. 4 configuration).
  auto cfg = SignatureTestConfig::hardware_study();
  stf::rf::IdealGainDut dut(Cplx(3.0, 0.0));
  const auto stim = stf::dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, -0.15, 0.1, -0.2, 0.15, 0.05, -0.1});
  cfg.board.path_phase_rad = 0.0;
  const auto ref =
      SignatureAcquirer(cfg, 16).acquire(dut, stim, nullptr);
  cfg.board.path_phase_rad = 2.2;
  const auto shifted =
      SignatureAcquirer(cfg, 16).acquire(dut, stim, nullptr);
  double ref_norm = 0.0, diff_norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref_norm += ref[i] * ref[i];
    diff_norm += (ref[i] - shifted[i]) * (ref[i] - shifted[i]);
  }
  EXPECT_LT(std::sqrt(diff_norm / ref_norm), 0.05);
}

TEST(Acquisition, TimeDomainSignatureIsPhaseSensitive) {
  // Without the FFT-magnitude step (Fig. 2 configuration, f1 == f2) the
  // signature collapses at phi = pi/2 -- Eq. 4.
  auto cfg = SignatureTestConfig::simulation_study();
  cfg.use_fft_magnitude = false;
  cfg.board.lo_offset_hz = 0.0;
  stf::rf::IdealGainDut dut(Cplx(3.0, 0.0));

  cfg.board.path_phase_rad = 0.0;
  const auto s0 = SignatureAcquirer(cfg, 32).acquire(
      dut, test_stimulus(cfg.capture_s), nullptr);
  cfg.board.path_phase_rad = M_PI / 2.0;
  const auto s90 = SignatureAcquirer(cfg, 32).acquire(
      dut, test_stimulus(cfg.capture_s), nullptr);

  double p0 = 0.0, p90 = 0.0;
  for (double v : s0) p0 += v * v;
  for (double v : s90) p90 += v * v;
  EXPECT_LT(p90, p0 * 1e-6);
}

TEST(Acquisition, NoiseChangesSignature) {
  const auto cfg = SignatureTestConfig::simulation_study();
  SignatureAcquirer acq(cfg, 16);
  stf::rf::IdealGainDut dut(Cplx(2.0, 0.0));
  stf::stats::Rng rng(3);
  const auto clean = acq.acquire(dut, test_stimulus(cfg.capture_s), nullptr);
  const auto noisy = acq.acquire(dut, test_stimulus(cfg.capture_s), &rng);
  double diff = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    diff += std::abs(noisy[i] - clean[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Acquisition, ExpectedBinNoiseMatchesEmpirical) {
  const auto cfg = SignatureTestConfig::simulation_study();
  SignatureAcquirer acq(cfg, 16);
  stf::rf::IdealGainDut dut(Cplx(2.0, 0.0));
  const auto stim = test_stimulus(cfg.capture_s);
  const auto clean = acq.acquire(dut, stim, nullptr);
  stf::stats::Rng rng(7);
  // Empirical std of one (strong) bin across repeated noisy acquisitions.
  const std::size_t bin = 2;
  std::vector<double> values;
  for (int i = 0; i < 200; ++i)
    values.push_back(acq.acquire(dut, stim, &rng)[bin] - clean[bin]);
  double var = 0.0;
  for (double v : values) var += v * v;
  const double sigma_emp = std::sqrt(var / values.size());
  const double sigma_pred = acq.expected_bin_noise_sigma();
  EXPECT_GT(sigma_emp, 0.2 * sigma_pred);
  EXPECT_LT(sigma_emp, 5.0 * sigma_pred);
}

TEST(Acquisition, HardwareStudyConfigDiffers) {
  const auto sim = SignatureTestConfig::simulation_study();
  const auto hw = SignatureTestConfig::hardware_study();
  EXPECT_DOUBLE_EQ(hw.capture_s, 5e-3);
  EXPECT_DOUBLE_EQ(hw.digitizer.fs_hz, 1e6);
  EXPECT_DOUBLE_EQ(hw.board.lo_offset_hz, 100e3);
  EXPECT_DOUBLE_EQ(sim.digitizer.fs_hz, 20e6);
}

// -------------------------------------------------------------- objective --

TEST(Objective, PerfectMappingHasZeroResidual) {
  // A_p = A_s (specs ARE the signature sensitivities): residual must be 0
  // and with sigma_m = 0 the objective vanishes.
  stf::la::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  auto out = signature_objective(a, a, 0.0);
  EXPECT_NEAR(out.f, 0.0, 1e-18);
  for (double s : out.sigma_p) EXPECT_NEAR(s, 0.0, 1e-10);
}

TEST(Objective, OrthogonalSignatureGivesFullResidual) {
  // Signature sensitive only to parameter 1, spec only to parameter 2:
  // nothing maps, residual equals ||a_p||.
  stf::la::Matrix a_p{{0.0, 5.0}};
  stf::la::Matrix a_s{{1.0, 0.0}};
  auto out = signature_objective(a_p, a_s, 0.0);
  EXPECT_NEAR(out.sigma_p[0], 5.0, 1e-10);
  EXPECT_NEAR(out.f, 25.0, 1e-9);
}

TEST(Objective, NoisePenaltyGrowsWithSigmaM) {
  stf::la::Matrix a_p{{1.0, 0.5}};
  stf::la::Matrix a_s{{0.01, 0.0}, {0.0, 0.02}};  // weak signature
  auto quiet = signature_objective(a_p, a_s, 0.0);
  auto noisy = signature_objective(a_p, a_s, 1e-3);
  EXPECT_GT(noisy.f, quiet.f);
  EXPECT_GT(noisy.noise_term[0], 0.0);
}

TEST(Objective, StrongerSignatureSensitivityLowersNoiseTerm) {
  stf::la::Matrix a_p{{1.0}};
  stf::la::Matrix weak{{0.01}};
  stf::la::Matrix strong{{1.0}};
  const double sigma_m = 1e-3;
  auto w = signature_objective(a_p, weak, sigma_m);
  auto s = signature_objective(a_p, strong, sigma_m);
  EXPECT_LT(s.f, w.f);
}

TEST(Objective, DimensionMismatchThrows) {
  stf::la::Matrix a_p(2, 3);
  stf::la::Matrix a_s(4, 2);
  EXPECT_THROW(signature_objective(a_p, a_s, 0.0), std::invalid_argument);
  EXPECT_THROW(signature_objective(stf::la::Matrix{}, a_s, 0.0),
               std::invalid_argument);
  stf::la::Matrix ok(4, 3);
  EXPECT_THROW(signature_objective(a_p, ok, -1.0), std::invalid_argument);
}

TEST(Objective, MappingMatrixShape) {
  stf::la::Matrix a_p(3, 5);
  stf::la::Matrix a_s(7, 5);
  a_p(0, 0) = 1.0;
  a_s(0, 0) = 1.0;
  a_s(1, 1) = 1.0;
  auto out = signature_objective(a_p, a_s, 1e-4);
  EXPECT_EQ(out.a.rows(), 3u);
  EXPECT_EQ(out.a.cols(), 7u);
  EXPECT_EQ(out.sigma.size(), 3u);
}

// ------------------------------------------------------------- sensitivity --

// Synthetic factory: specs and DUT gain are known linear functions of the
// two parameters, so the sensitivity matrices have closed forms.
DeviceFactory synthetic_factory() {
  return [](const std::vector<double>& x) {
    DeviceCharacterization out;
    out.specs = {2.0 * x[0] + 3.0 * x[1], -1.0 * x[1]};
    out.dut = std::make_shared<stf::rf::IdealGainDut>(
        Cplx(x[0] + 0.5 * x[1], 0.0));
    return out;
  };
}

TEST(Sensitivity, SpecSensitivityMatchesClosedForm) {
  PerturbationSet ps(synthetic_factory(), {1.0, 2.0}, 0.05);
  auto a_p = ps.spec_sensitivity();
  ASSERT_EQ(a_p.rows(), 2u);
  ASSERT_EQ(a_p.cols(), 2u);
  // d(specs)/d(relative x_j) = d(specs)/dx_j * x0_j.
  EXPECT_NEAR(a_p(0, 0), 2.0 * 1.0, 1e-9);
  EXPECT_NEAR(a_p(0, 1), 3.0 * 2.0, 1e-9);
  EXPECT_NEAR(a_p(1, 0), 0.0, 1e-9);
  EXPECT_NEAR(a_p(1, 1), -1.0 * 2.0, 1e-9);
}

TEST(Sensitivity, SignatureSensitivityScalesWithGainDependence) {
  PerturbationSet ps(synthetic_factory(), {1.0, 2.0}, 0.05);
  const auto cfg = SignatureTestConfig::simulation_study();
  SignatureAcquirer acq(cfg, 8);
  auto a_s = ps.signature_sensitivity(acq, test_stimulus(cfg.capture_s));
  ASSERT_EQ(a_s.rows(), 8u);
  ASSERT_EQ(a_s.cols(), 2u);
  // Gain = x0 + 0.5 x1; relative sensitivities are x0 and 0.5*x1 = 1 and 1,
  // so the two columns must be (near) equal.
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(a_s(i, 0), a_s(i, 1), 1e-6 + 1e-3 * std::abs(a_s(i, 0)));
}

TEST(Sensitivity, InvalidConstructionThrows) {
  EXPECT_THROW(PerturbationSet(nullptr, {1.0}, 0.05), std::invalid_argument);
  EXPECT_THROW(PerturbationSet(synthetic_factory(), {}, 0.05),
               std::invalid_argument);
  EXPECT_THROW(PerturbationSet(synthetic_factory(), {1.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(PerturbationSet(synthetic_factory(), {1.0}, 1.5),
               std::invalid_argument);
}

// ------------------------------------------------------------- calibration --

TEST(Calibration, RecoversLinearMapExactly) {
  // spec = 3 * bin0 - 2 * bin1 + 1: a degree-1 model must nail it.
  CalibrationOptions opts;
  opts.poly_degree = 1;
  opts.ridge_lambda = 0.0;
  CalibrationModel model(opts);
  stf::stats::Rng rng(3);
  const std::size_t n = 30;
  stf::la::Matrix sig(n, 2), specs(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double b0 = rng.uniform(0.0, 1.0);
    const double b1 = rng.uniform(0.0, 1.0);
    sig(i, 0) = b0;
    sig(i, 1) = b1;
    specs(i, 0) = 3.0 * b0 - 2.0 * b1 + 1.0;
  }
  model.fit(sig, specs);
  for (int t = 0; t < 10; ++t) {
    const double b0 = rng.uniform(0.0, 1.0);
    const double b1 = rng.uniform(0.0, 1.0);
    const auto p = model.predict({b0, b1});
    EXPECT_NEAR(p[0], 3.0 * b0 - 2.0 * b1 + 1.0, 1e-8);
  }
}

TEST(Calibration, QuadraticNeedsDegreeTwo) {
  stf::stats::Rng rng(5);
  const std::size_t n = 60;
  stf::la::Matrix sig(n, 1), specs(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double b = rng.uniform(-1.0, 1.0);
    sig(i, 0) = b;
    specs(i, 0) = b * b;
  }
  CalibrationOptions lin;
  lin.poly_degree = 1;
  lin.ridge_lambda = 1e-9;
  CalibrationModel m1(lin);
  m1.fit(sig, specs);
  CalibrationOptions quad;
  quad.poly_degree = 2;
  quad.ridge_lambda = 1e-9;
  CalibrationModel m2(quad);
  m2.fit(sig, specs);
  double err1 = 0.0, err2 = 0.0;
  for (double b = -0.9; b <= 0.9; b += 0.1) {
    err1 += std::abs(m1.predict({b})[0] - b * b);
    err2 += std::abs(m2.predict({b})[0] - b * b);
  }
  EXPECT_LT(err2, err1 / 10.0);
}

TEST(Calibration, MultipleSpecsIndependent) {
  stf::stats::Rng rng(7);
  const std::size_t n = 40;
  stf::la::Matrix sig(n, 2), specs(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    sig(i, 0) = rng.uniform(0.0, 1.0);
    sig(i, 1) = rng.uniform(0.0, 1.0);
    specs(i, 0) = 5.0 * sig(i, 0);
    specs(i, 1) = -2.0 * sig(i, 1);
  }
  CalibrationOptions opts;
  opts.poly_degree = 1;
  opts.ridge_lambda = 1e-9;
  CalibrationModel model(opts);
  model.fit(sig, specs);
  const auto p = model.predict({0.5, 0.25});
  EXPECT_NEAR(p[0], 2.5, 1e-6);
  EXPECT_NEAR(p[1], -0.5, 1e-6);
}

TEST(Calibration, ErrorsOnMisuse) {
  CalibrationModel model;
  EXPECT_THROW(model.predict({1.0}), std::logic_error);
  stf::la::Matrix sig(1, 2), specs(1, 1);
  EXPECT_THROW(model.fit(sig, specs), std::invalid_argument);  // n < 2
  stf::la::Matrix sig2(4, 2), specs2(3, 1);
  EXPECT_THROW(model.fit(sig2, specs2), std::invalid_argument);
  EXPECT_THROW(CalibrationModel(CalibrationOptions{0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(CalibrationModel(CalibrationOptions{2, -1.0}),
               std::invalid_argument);
}

TEST(Calibration, PredictRejectsWrongLength) {
  stf::stats::Rng rng(9);
  stf::la::Matrix sig(10, 3), specs(10, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 3; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = sig(i, 0);
  }
  CalibrationModel model;
  model.fit(sig, specs);
  EXPECT_THROW(model.predict({1.0}), std::invalid_argument);
}

TEST(Calibration, ConstantBinHandledGracefully) {
  stf::stats::Rng rng(11);
  stf::la::Matrix sig(20, 2), specs(20, 1);
  for (std::size_t i = 0; i < 20; ++i) {
    sig(i, 0) = 0.7;  // dead bin
    sig(i, 1) = rng.uniform(0.0, 1.0);
    specs(i, 0) = 2.0 * sig(i, 1);
  }
  CalibrationOptions opts;
  opts.poly_degree = 1;
  opts.ridge_lambda = 1e-9;
  CalibrationModel model(opts);
  EXPECT_NO_THROW(model.fit(sig, specs));
  EXPECT_NEAR(model.predict({0.7, 0.5})[0], 1.0, 1e-6);
}

TEST(Calibration, PredictBatchMatchesPredictExactly) {
  // predict_batch is documented to reproduce predict() bit for bit, so
  // the comparison is EXPECT_EQ, not NEAR.
  stf::stats::Rng rng(21);
  const std::size_t n = 50, m = 4;
  stf::la::Matrix sig(n, m), specs(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = 3.0 * sig(i, 0) - sig(i, 2);
    specs(i, 1) = sig(i, 1) * sig(i, 1) + 0.5;
    specs(i, 2) = sig(i, 3) - 2.0 * sig(i, 0) * sig(i, 1);
  }
  CalibrationOptions opts;
  opts.poly_degree = 2;
  opts.ridge_lambda = 1e-6;
  CalibrationModel model(opts);
  model.fit(sig, specs);

  stf::stats::Rng probe_rng(23);
  const std::size_t batch = 17;
  stf::la::Matrix probes(batch, m);
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t j = 0; j < m; ++j)
      probes(i, j) = probe_rng.uniform(-0.5, 1.5);
  const stf::la::Matrix out = model.predict_batch(probes);
  ASSERT_EQ(out.rows(), batch);
  ASSERT_EQ(out.cols(), 3u);
  for (std::size_t i = 0; i < batch; ++i) {
    const auto one = model.predict(probes.row(i));
    ASSERT_EQ(one.size(), out.cols());
    for (std::size_t s = 0; s < one.size(); ++s)
      EXPECT_EQ(out(i, s), one[s]) << "row " << i << " spec " << s;
  }
}

TEST(Calibration, PredictBatchRejectsMisuse) {
  CalibrationModel unfitted;
  EXPECT_THROW(unfitted.predict_batch(stf::la::Matrix(2, 2)),
               std::logic_error);
  stf::stats::Rng rng(25);
  stf::la::Matrix sig(10, 3), specs(10, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 3; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = sig(i, 0);
  }
  CalibrationModel model;
  model.fit(sig, specs);
  EXPECT_THROW(model.predict_batch(stf::la::Matrix(4, 2)),
               std::invalid_argument);
  const auto empty = model.predict_batch(stf::la::Matrix(0, 3));
  EXPECT_EQ(empty.rows(), 0u);
}

// A fitted model whose serialized text the corruption tests can mutate.
static std::string fitted_model_text() {
  stf::stats::Rng rng(27);
  stf::la::Matrix sig(20, 3), specs(20, 2);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 3; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    specs(i, 0) = sig(i, 0) + sig(i, 1);
    specs(i, 1) = sig(i, 2);
  }
  CalibrationOptions opts;
  opts.poly_degree = 2;
  opts.ridge_lambda = 1e-6;
  CalibrationModel model(opts);
  model.fit(sig, specs);
  return model.serialize();
}

TEST(Calibration, DeserializeErrorsAreTypedAndDescriptive) {
  // Regression: corruption used to surface as a raw stream failure or, for
  // a flipped length field, a giant allocation. Every malformed input must
  // now throw CalibrationParseError with a message naming the bad field.
  const std::string good = fitted_model_text();
  ASSERT_NO_THROW(CalibrationModel::deserialize(good));

  auto expect_parse_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      CalibrationModel::deserialize(text);
      FAIL() << "expected CalibrationParseError for: " << needle;
    } catch (const CalibrationParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("CalibrationModel::deserialize"), std::string::npos)
          << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  };

  expect_parse_error("", "bad header");
  expect_parse_error("garbage v9", "bad header");
  expect_parse_error("sigtest-calibration v2\n", "bad header");

  // Truncation mid-vector (not at the tail, where a partial double could
  // still parse).
  const auto mid = good.find("bin_scale");
  ASSERT_NE(mid, std::string::npos);
  expect_parse_error(good.substr(0, mid + 12), "bin_scale");

  // A flipped length field must be rejected before any allocation.
  std::string huge = good;
  const auto bm = huge.find("bin_mean 3");
  ASSERT_NE(bm, std::string::npos);
  huge.replace(bm, std::strlen("bin_mean 3"), "bin_mean 2000000");
  expect_parse_error(huge, "exceeds limit");

  std::string bad_degree = good;
  const auto pd = bad_degree.find("poly_degree 2");
  ASSERT_NE(pd, std::string::npos);
  bad_degree.replace(pd, std::strlen("poly_degree 2"), "poly_degree 9");
  expect_parse_error(bad_degree, "poly_degree");

  std::string bad_lambda = good;
  const auto rl = bad_lambda.find("ridge_lambda ");
  const auto rl_end = bad_lambda.find('\n', rl);
  ASSERT_NE(rl, std::string::npos);
  bad_lambda.replace(rl, rl_end - rl, "ridge_lambda -1");
  expect_parse_error(bad_lambda, "ridge_lambda");

  // And the typed error still satisfies the legacy catch sites.
  EXPECT_THROW(CalibrationModel::deserialize("nope"), std::invalid_argument);
}

TEST(Calibration, DeserializeRoundTripSurvivesPredictBatch) {
  const std::string text = fitted_model_text();
  const auto restored = CalibrationModel::deserialize(text);
  stf::stats::Rng rng(29);
  stf::la::Matrix probes(7, 3);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 3; ++j) probes(i, j) = rng.uniform(0.0, 1.0);
  const auto batch = restored.predict_batch(probes);
  for (std::size_t i = 0; i < 7; ++i) {
    const auto one = restored.predict(probes.row(i));
    for (std::size_t s = 0; s < one.size(); ++s)
      EXPECT_EQ(batch(i, s), one[s]);
  }
}

}  // namespace
