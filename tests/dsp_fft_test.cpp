// Tests for FFT, windows, and spectral measurement.
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using stf::dsp::cplx;

std::vector<double> make_tone(double amp, double freq, double fs,
                              std::size_t n, double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::cos(2.0 * std::numbers::pi * freq *
                              static_cast<double>(i) / fs +
                          phase);
  return x;
}

// ------------------------------------------------------------------- FFT --

TEST(Fft, Pow2Helpers) {
  EXPECT_TRUE(stf::dsp::is_pow2(1));
  EXPECT_TRUE(stf::dsp::is_pow2(64));
  EXPECT_FALSE(stf::dsp::is_pow2(0));
  EXPECT_FALSE(stf::dsp::is_pow2(48));
  EXPECT_EQ(stf::dsp::next_pow2(1), 1u);
  EXPECT_EQ(stf::dsp::next_pow2(17), 32u);
}

// Forward transform of `x` zero-padded to the next power of two, through
// the production kernel.
std::vector<cplx> fft_padded(std::vector<cplx> x) {
  x.resize(stf::dsp::next_pow2(x.size()), cplx{});
  stf::dsp::fft_pow2_inplace(x);
  return x;
}

TEST(Fft, DcSignal) {
  std::vector<cplx> spec(8, cplx(1.0, 0.0));
  stf::dsp::fft_pow2_inplace(spec);
  EXPECT_NEAR(std::abs(spec[0]), 8.0, 1e-12);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-12);
}

TEST(Fft, SingleBinTone) {
  const std::size_t n = 64;
  std::vector<cplx> spec(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                       static_cast<double>(n);
    spec[i] = cplx(std::cos(ang), std::sin(ang));
  }
  stf::dsp::fft_pow2_inplace(spec);
  EXPECT_NEAR(std::abs(spec[5]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 5) continue;
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
  }
}

TEST(Fft, EmptyThrows) {
  EXPECT_CONTRACT_THROW(stf::dsp::fft_pow2_inplace({}), std::invalid_argument);
  std::vector<cplx> x(48);
  EXPECT_CONTRACT_THROW(stf::dsp::fft_pow2_inplace(x), std::invalid_argument);
}

// The fast path must agree with the brute-force DFT for every capture
// length the tester pads: a length-n signal zero-padded to next_pow2(n).
class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, MatchesReference) {
  const std::size_t n = GetParam();
  stf::stats::Rng rng(static_cast<std::uint64_t>(n));
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.normal(), rng.normal());
  const auto fast = fft_padded(x);
  x.resize(fast.size(), cplx{});
  const auto ref = stf::dsp::dft_reference(x);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t k = 0; k < fast.size(); ++k)
    EXPECT_NEAR(std::abs(fast[k] - ref[k]), 0.0,
                1e-8 * static_cast<double>(fast.size()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsDft,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16, 27, 60, 64,
                                           100, 128, 255, 256, 257));

// The inverse DFT is the forward one conjugated on both sides and scaled by
// 1/N, so running the forward kernel that way must give back the signal.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, IfftInvertsFft) {
  const std::size_t n = GetParam();
  stf::stats::Rng rng(1000 + static_cast<std::uint64_t>(n));
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.normal(), rng.normal());
  x.resize(stf::dsp::next_pow2(n), cplx{});
  std::vector<cplx> y = x;
  stf::dsp::fft_pow2_inplace(y);
  for (auto& v : y) v = std::conj(v);
  stf::dsp::fft_pow2_inplace(y);
  const double inv_n = 1.0 / static_cast<double>(y.size());
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(std::abs(std::conj(y[i]) * inv_n - x[i]), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 7, 16, 33, 64, 129, 500));

// ---------------------------------------------------------- plan cache --

TEST(FftPlanCache, HoldsOnePlanPerPowerOfTwoSize) {
  stf::dsp::fft_plan_cache_clear();
  EXPECT_EQ(stf::dsp::fft_plan_cache_size(), 0u);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t n = 1; n <= 4096; n *= 2) {
      std::vector<cplx> x(n, cplx(1.0, 0.0));
      stf::dsp::fft_pow2_inplace(x);
    }
    EXPECT_EQ(stf::dsp::fft_plan_cache_size(), 13u) << "round " << round;
  }
  // A size planned again after clear() still computes correctly.
  stf::dsp::fft_plan_cache_clear();
  EXPECT_EQ(stf::dsp::fft_plan_cache_size(), 0u);
  stf::stats::Rng rng(404);
  std::vector<cplx> x(8);
  for (auto& v : x) v = cplx(rng.normal(), rng.normal());
  const auto ref = stf::dsp::dft_reference(x);
  stf::dsp::fft_pow2_inplace(x);
  for (std::size_t k = 0; k < x.size(); ++k)
    EXPECT_NEAR(std::abs(x[k] - ref[k]), 0.0, 1e-9);
  EXPECT_EQ(stf::dsp::fft_plan_cache_size(), 1u);
}

TEST(FftPlanCache, CountsOneMissPerSizeAndHitsAfter) {
  if (!stf::core::telemetry::compiled()) GTEST_SKIP();
  stf::dsp::fft_plan_cache_clear();
  stf::core::telemetry::set_enabled(true);
  stf::core::telemetry::reset();
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t n : {8u, 16u, 32u, 64u}) {
      std::vector<cplx> x(n, cplx(1.0, 0.0));
      stf::dsp::fft_pow2_inplace(x);
    }
  }
  EXPECT_EQ(stf::core::telemetry::counter_value("fft.plan_cache_miss"), 4u);
  EXPECT_EQ(stf::core::telemetry::counter_value("fft.plan_cache_hit"), 8u);
  EXPECT_EQ(stf::core::telemetry::counter_value("fft.transforms"), 12u);
  stf::core::telemetry::set_enabled(false);
  stf::core::telemetry::reset();
}

// ------------------------------------------------------------ lane FFT --

// Signals transformed together by fft_pow2_lanes() against each one's own
// fft_pow2_inplace(), bit for bit. `real` zeroes the imaginary parts, as
// the signature stage's zero-padded captures do.
void expect_lanes_match_inplace(std::size_t n, std::size_t lanes, bool real,
                                stf::stats::Rng& rng) {
  std::vector<std::vector<cplx>> signals(lanes, std::vector<cplx>(n));
  std::vector<double> re(n * lanes), im(n * lanes);
  for (std::size_t d = 0; d < lanes; ++d) {
    for (std::size_t j = 0; j < n; ++j) {
      signals[d][j] = cplx(rng.normal(0.0, 1.0), real ? 0.0 : rng.normal());
      re[j * lanes + d] = signals[d][j].real();
      im[j * lanes + d] = signals[d][j].imag();
    }
  }
  stf::dsp::fft_pow2_lanes(re, im, lanes);
  for (std::size_t d = 0; d < lanes; ++d) {
    stf::dsp::fft_pow2_inplace(signals[d]);
    std::vector<double> want_re(n), want_im(n), got_re(n), got_im(n);
    for (std::size_t j = 0; j < n; ++j) {
      want_re[j] = signals[d][j].real();
      want_im[j] = signals[d][j].imag();
      got_re[j] = re[j * lanes + d];
      got_im[j] = im[j * lanes + d];
    }
    EXPECT_EQ(std::memcmp(got_re.data(), want_re.data(), n * sizeof(double)),
              0)
        << "n " << n << ", lane " << d << " of " << lanes << ", real part";
    EXPECT_EQ(std::memcmp(got_im.data(), want_im.data(), n * sizeof(double)),
              0)
        << "n " << n << ", lane " << d << " of " << lanes << ", imag part";
  }
}

TEST(FftLanes, EveryLaneMatchesItsOwnTransformForEverySizeAndGroup) {
  stf::stats::Rng rng(2024);
  for (const bool simd_on : {true, false}) {
    stf::core::simd::set_enabled(simd_on);
    const std::size_t w = stf::dsp::fft_lane_width();
    for (std::size_t n = 2; n <= 1024; n *= 2)
      for (std::size_t lanes = 1; lanes <= w + 1; ++lanes)
        for (const bool real : {true, false})
          expect_lanes_match_inplace(n, lanes, real, rng);
  }
  stf::core::simd::clear_enabled_override();
}

TEST(FftLanes, CountsEveryLaneAsATransformAndRejectsBadShapes) {
  if (stf::core::telemetry::compiled()) {
    stf::core::telemetry::set_enabled(true);
    stf::core::telemetry::reset();
    std::vector<double> re(64 * 3, 1.0), im(64 * 3, 0.0);
    stf::dsp::fft_pow2_lanes(re, im, 3);
    EXPECT_EQ(stf::core::telemetry::counter_value("fft.transforms"), 3u);
    stf::core::telemetry::set_enabled(false);
    stf::core::telemetry::reset();
  }
  std::vector<double> re(24), im(24);
  EXPECT_CONTRACT_THROW(stf::dsp::fft_pow2_lanes(re, im, 2),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(stf::dsp::fft_pow2_lanes(re, im, 0),
                        std::invalid_argument);
  std::vector<double> short_im(16);
  EXPECT_CONTRACT_THROW(stf::dsp::fft_pow2_lanes({re.data(), 16}, short_im, 3),
                        std::invalid_argument);
}

TEST(Fft, ParsevalTheorem) {
  stf::stats::Rng rng(77);
  const std::size_t n = 256;
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.normal(), rng.normal());
  std::vector<cplx> spec = x;
  stf::dsp::fft_pow2_inplace(spec);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-6 * time_energy * static_cast<double>(n));
}

TEST(Fft, LinearityProperty) {
  stf::stats::Rng rng(88);
  const std::size_t n = 64;
  std::vector<cplx> a(n), b(n);
  for (auto& v : a) v = cplx(rng.normal(), rng.normal());
  for (auto& v : b) v = cplx(rng.normal(), rng.normal());
  std::vector<cplx> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fa = fft_padded(a);
  const auto fb = fft_padded(b);
  const auto fs = fft_padded(sum);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(fs[k] - (2.0 * fa[k] + 3.0 * fb[k])), 0.0, 1e-9);
}

// --------------------------------------------------------------- windows --

TEST(Window, RectIsAllOnes) {
  auto w = stf::dsp::make_window(stf::dsp::WindowType::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndpointsAndPeak) {
  auto w = stf::dsp::make_window(stf::dsp::WindowType::kHann, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);  // periodic convention: peak at n/2
}

TEST(Window, ZeroLengthThrows) {
  EXPECT_CONTRACT_THROW(stf::dsp::make_window(stf::dsp::WindowType::kHann, 0),
                        std::invalid_argument);
}

TEST(Window, GainMatchesSum) {
  auto w = stf::dsp::make_window(stf::dsp::WindowType::kHamming, 32);
  double s = 0.0;
  for (double v : w) s += v;
  EXPECT_DOUBLE_EQ(stf::dsp::window_gain(w), s);
}

// -------------------------------------------------------------- spectrum --

TEST(Spectrum, ToneAmplitudeOnBin) {
  const double fs = 1000.0;
  auto x = make_tone(0.7, 125.0, fs, 256);
  EXPECT_NEAR(stf::dsp::tone_amplitude(x, 125.0, fs), 0.7, 1e-3);
}

// Flat-top window keeps amplitude accuracy for off-bin tones (needed by the
// conventional-test emulation, where tone frequencies are not bin-aligned).
class OffBinAmplitude : public ::testing::TestWithParam<double> {};

TEST_P(OffBinAmplitude, FlatTopAccurate) {
  const double fs = 1000.0;
  const double freq = GetParam();
  auto x = make_tone(0.5, freq, fs, 1024, 0.3);
  EXPECT_NEAR(stf::dsp::tone_amplitude(x, freq, fs), 0.5, 0.5 * 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Freqs, OffBinAmplitude,
                         ::testing::Values(100.0, 101.3, 117.77, 250.5,
                                           333.33, 401.0));

TEST(Spectrum, ComplexEnvelopeToneAmplitude) {
  const double fs = 1000.0;
  const std::size_t n = 512;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang =
        2.0 * std::numbers::pi * 93.7 * static_cast<double>(i) / fs + 1.1;
    x[i] = 0.25 * cplx(std::cos(ang), std::sin(ang));
  }
  EXPECT_NEAR(stf::dsp::tone_amplitude(x, 93.7, fs), 0.25, 0.25 * 1e-2);
}

TEST(Spectrum, SignalPowerOfTone) {
  auto x = make_tone(2.0, 100.0, 1000.0, 1000);
  EXPECT_NEAR(stf::dsp::signal_power(x), 2.0, 0.02);  // A^2/2
}

}  // namespace
