// Tests for the contracts subsystem (src/core/contracts.hpp): that the
// macros report rich diagnostics, that they preserve the historical
// std::invalid_argument / std::logic_error contract of the call sites they
// replaced, and that the numeric core's key entry points actually reject
// shape mismatches, ragged training sets and NaN/Inf inputs.
//
// Every test that triggers a violation is skipped when the binary was built
// with SIGTEST_CHECKED=OFF -- in that configuration the checks compile to
// nothing by design, and exercising the violating inputs would be UB.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "core/contracts.hpp"
#include "dsp/pwl.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "rf/population.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/cell.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using stf::ContractViolation;
namespace la = stf::la;
namespace sigtest = stf::sigtest;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------- diagnostics --

TEST(Contracts, ViolationCarriesDiagnostics) {
  SKIP_IF_UNCHECKED();
  la::Matrix a(2, 3), b(2, 2);
  try {
    la::Matrix c = a * b;
    FAIL() << "matmul accepted mismatched inner dimensions";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.kind(), "precondition");
    EXPECT_NE(e.condition(), nullptr);
    EXPECT_NE(e.file(), nullptr);
    EXPECT_GT(e.line(), 0);
    EXPECT_NE(std::string(e.what()).find("contract violation"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("matmul"), std::string::npos);
  }
}

TEST(Contracts, ViolationPreservesHistoricalExceptionTypes) {
  SKIP_IF_UNCHECKED();
  la::Matrix a(2, 3), b(2, 2);
  // Call sites historically threw std::invalid_argument (a logic_error);
  // ContractViolation must still satisfy both catch clauses.
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW(a * b, std::logic_error);
}

// ---------------------------------------------------- linalg shape checks --

TEST(Contracts, LstsqRejectsMismatchedRhs) {
  SKIP_IF_UNCHECKED();
  la::Matrix a = la::Matrix::identity(3);
  EXPECT_THROW(la::lstsq(a, std::vector<double>{1.0, 2.0}),
               ContractViolation);
}

TEST(Contracts, SvdRejectsEmptyMatrix) {
  SKIP_IF_UNCHECKED();
  EXPECT_THROW(la::svd(la::Matrix()), ContractViolation);
}

TEST(Contracts, MatrixIndexingIsBoundsChecked) {
  SKIP_IF_UNCHECKED();
  la::Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), ContractViolation);
  EXPECT_THROW(m(0, 2), ContractViolation);
  EXPECT_THROW(m.set_row(0, {1.0, 2.0, 3.0}), ContractViolation);
}

// ------------------------------------------------------- finiteness checks --

TEST(Contracts, LstsqRejectsNanRhs) {
  SKIP_IF_UNCHECKED();
  la::Matrix a = la::Matrix::identity(2);
  try {
    la::lstsq(a, std::vector<double>{1.0, kNan});
    FAIL() << "lstsq accepted a NaN rhs";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.kind(), "finite");
  }
}

TEST(Contracts, SvdAndCholeskyRejectNanInput) {
  SKIP_IF_UNCHECKED();
  la::Matrix a = la::Matrix::identity(2);
  a(0, 1) = kNan;
  EXPECT_THROW(la::svd(a), ContractViolation);
  EXPECT_THROW(la::cholesky_solve(a, {1.0, 1.0}), ContractViolation);
}

TEST(Contracts, CalibrationFitRejectsNanSignatureMatrix) {
  SKIP_IF_UNCHECKED();
  la::Matrix sig(4, 2), specs(4, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    sig(i, 0) = static_cast<double>(i);
    sig(i, 1) = 1.0;
    specs(i, 0) = 2.0 * static_cast<double>(i);
  }
  sig(2, 1) = kNan;
  sigtest::CalibrationModel model;
  EXPECT_THROW(model.fit(sig, specs, {}), ContractViolation);
}

// ----------------------------------------------------- ragged training sets --

TEST(Contracts, FitFromCapturesRejectsRaggedSignatures) {
  SKIP_IF_UNCHECKED();
  sigtest::CalibrationModel model;
  auto capture = [](std::size_t i) {
    return sigtest::Signature(i < 2 ? 4 : 3, 1.0);  // length changes mid-set
  };
  auto specs = [](std::size_t) { return std::vector<double>{1.0}; };
  EXPECT_THROW(
      sigtest::fit_from_captures(model, 5, capture, specs, /*n_avg=*/1),
      ContractViolation);
}

TEST(Contracts, FitFromCapturesRejectsRaggedSpecs) {
  SKIP_IF_UNCHECKED();
  sigtest::CalibrationModel model;
  auto capture = [](std::size_t i) {
    return sigtest::Signature(4, 1.0 + static_cast<double>(i));
  };
  auto specs = [](std::size_t i) {
    return std::vector<double>(i == 3 ? 2 : 1, 0.5);  // width changes
  };
  EXPECT_THROW(
      sigtest::fit_from_captures(model, 5, capture, specs, /*n_avg=*/1),
      ContractViolation);
}

// ------------------------------------------------ NaN through the pipeline --

TEST(Contracts, NanStimulusIsCaughtDuringCalibration) {
  SKIP_IF_UNCHECKED();
  // A NaN breakpoint is a representable PwlWaveform; the poisoned samples
  // flow through render -> load board -> capture -> FFT, and the acquire()
  // postcondition must stop them before they corrupt the fitted model.
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const auto stim = stf::dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, kNan, -0.2, 0.0});
  sigtest::TestCell runtime(cfg, stim, stf::circuit::LnaSpecs::names());
  const auto devices = stf::rf::make_lna_population(4, 0.2, 99);
  stf::stats::Rng rng(5);
  EXPECT_THROW(runtime.calibrate(devices, rng), ContractViolation);
  EXPECT_FALSE(runtime.calibrated());
}

}  // namespace
