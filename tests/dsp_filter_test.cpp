// Tests for FIR/IIR filters, PWL waveforms, and resampling.
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/fir.hpp"
#include "dsp/iir.hpp"
#include "dsp/pwl.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectrum.hpp"
#include "stats/rng.hpp"

namespace {

std::vector<double> make_tone(double amp, double freq, double fs,
                              std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::cos(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) / fs);
  return x;
}

// ------------------------------------------------------------------- FIR --

TEST(Fir, UnityDcGain) {
  auto taps = stf::dsp::design_fir_lowpass(0.1, 1.0, 31);
  double sum = 0.0;
  for (double t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Fir, EvenTapsThrows) {
  EXPECT_THROW(stf::dsp::design_fir_lowpass(0.1, 1.0, 30),
               std::invalid_argument);
}

TEST(Fir, InvalidCutoffThrows) {
  EXPECT_THROW(stf::dsp::design_fir_lowpass(0.6, 1.0, 31),
               std::invalid_argument);
  EXPECT_THROW(stf::dsp::design_fir_lowpass(0.0, 1.0, 31),
               std::invalid_argument);
}

TEST(Fir, PassbandAndStopbandBehavior) {
  const double fs = 1000.0;
  auto taps = stf::dsp::design_fir_lowpass(100.0, fs, 101);
  // Passband tone survives, stopband tone is attenuated.
  const double pass = std::abs(stf::dsp::fir_response(taps, 20.0, fs));
  const double stop = std::abs(stf::dsp::fir_response(taps, 400.0, fs));
  EXPECT_NEAR(pass, 1.0, 0.01);
  EXPECT_LT(stop, 0.01);
}

TEST(Fir, FilterToneAttenuationMatchesResponse) {
  const double fs = 1000.0;
  auto taps = stf::dsp::design_fir_lowpass(100.0, fs, 101);
  auto x = make_tone(1.0, 50.0, fs, 2048);
  auto y = stf::dsp::fir_filter(taps, x);
  // Measure in the steady-state middle to avoid edge transients.
  std::vector<double> mid(y.begin() + 256, y.end() - 256);
  const double expected = std::abs(stf::dsp::fir_response(taps, 50.0, fs));
  EXPECT_NEAR(stf::dsp::tone_amplitude(mid, 50.0, fs), expected, 0.02);
}

TEST(Fir, ComplexFilterActsPerComponent) {
  auto taps = stf::dsp::design_fir_lowpass(0.2, 1.0, 21);
  stf::stats::Rng rng(3);
  std::vector<std::complex<double>> x(128);
  for (auto& v : x) v = std::complex<double>(rng.normal(), rng.normal());
  auto y = stf::dsp::fir_filter(taps, x);
  std::vector<double> re(x.size()), im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  auto yre = stf::dsp::fir_filter(taps, re);
  auto yim = stf::dsp::fir_filter(taps, im);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), yre[i], 1e-12);
    EXPECT_NEAR(y[i].imag(), yim[i], 1e-12);
  }
}

// ------------------------------------------------------------------- IIR --

TEST(Iir, ButterworthDcGainIsUnity) {
  auto f = stf::dsp::butterworth_lowpass(4, 1e6, 20e6);
  EXPECT_NEAR(std::abs(f.response(0.0, 20e6)), 1.0, 1e-9);
}

TEST(Iir, ButterworthCutoffIsMinus3dB) {
  for (std::size_t order : {1u, 2u, 3u, 4u, 5u, 6u}) {
    auto f = stf::dsp::butterworth_lowpass(order, 10e6, 100e6);
    const double mag = std::abs(f.response(10e6, 100e6));
    EXPECT_NEAR(20.0 * std::log10(mag), -3.0103, 0.01)
        << "order " << order;
  }
}

TEST(Iir, HigherOrderRollsOffFaster) {
  auto f2 = stf::dsp::butterworth_lowpass(2, 1e6, 50e6);
  auto f6 = stf::dsp::butterworth_lowpass(6, 1e6, 50e6);
  const double m2 = std::abs(f2.response(5e6, 50e6));
  const double m6 = std::abs(f6.response(5e6, 50e6));
  EXPECT_LT(m6, m2 / 100.0);
}

TEST(Iir, MonotonePassband) {
  // Butterworth is maximally flat: magnitude decreases monotonically.
  auto f = stf::dsp::butterworth_lowpass(5, 10e6, 200e6);
  double prev = std::abs(f.response(0.0, 200e6));
  for (double freq = 1e6; freq <= 90e6; freq += 1e6) {
    const double cur = std::abs(f.response(freq, 200e6));
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(Iir, FilteredToneMatchesFrequencyResponse) {
  const double fs = 100e6;
  auto f = stf::dsp::butterworth_lowpass(3, 10e6, fs);
  auto x = make_tone(1.0, 8e6, fs, 4096);
  auto y = f.filter(x);
  std::vector<double> mid(y.begin() + 1024, y.end());
  const double expected = std::abs(f.response(8e6, fs));
  EXPECT_NEAR(stf::dsp::tone_amplitude(mid, 8e6, fs), expected, 0.02);
}

TEST(Iir, InvalidParamsThrow) {
  EXPECT_THROW(stf::dsp::butterworth_lowpass(0, 1e6, 10e6),
               std::invalid_argument);
  EXPECT_THROW(stf::dsp::butterworth_lowpass(2, 6e6, 10e6),
               std::invalid_argument);
  EXPECT_THROW(stf::dsp::BiquadCascade{std::vector<stf::dsp::Biquad>{}},
               std::invalid_argument);
}

TEST(Iir, OnePassCascadeMatchesSectionAtATimeBitwise) {
  // filter_inplace runs the sections together in one pass over time; each
  // output must equal filtering one whole section after another. Odd
  // orders include the first-order section; orders above 8 need more than
  // one pass.
  stf::stats::Rng rng(23);
  std::vector<double> x(401);
  for (auto& v : x) v = rng.normal();
  for (std::size_t order = 1; order <= 10; ++order) {
    const auto lpf = stf::dsp::butterworth_lowpass(order, 10e6, 80e6);
    std::vector<double> want = x;
    for (const stf::dsp::Biquad& s : lpf.sections()) {
      double z1 = 0.0;
      double z2 = 0.0;
      for (double& v : want) {
        const double in = v;
        const double out = s.b0 * in + z1;
        z1 = s.b1 * in - s.a1 * out + z2;
        z2 = s.b2 * in - s.a2 * out;
        v = out;
      }
    }
    std::vector<double> got = x;
    lpf.filter_inplace(got);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), x.size() * sizeof(double)),
              0)
        << "order " << order;
  }
}

TEST(Iir, ComplexFilterActsPerComponent) {
  auto f = stf::dsp::butterworth_lowpass(2, 0.1, 1.0);
  stf::stats::Rng rng(5);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = std::complex<double>(rng.normal(), rng.normal());
  auto y = f.filter(x);
  std::vector<double> re(x.size()), im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  auto yre = f.filter(re);
  auto yim = f.filter(im);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), yre[i], 1e-12);
    EXPECT_NEAR(y[i].imag(), yim[i], 1e-12);
  }
}

// ------------------------------------------------------------------- PWL --

TEST(Pwl, InterpolatesBetweenBreakpoints) {
  stf::dsp::PwlWaveform w({{0.0, 0.0}, {1.0, 2.0}, {2.0, 0.0}});
  EXPECT_DOUBLE_EQ(w.sample(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.sample(1.0), 2.0);
  EXPECT_DOUBLE_EQ(w.sample(1.75), 0.5);
}

TEST(Pwl, HoldsEndValuesOutsideSpan) {
  stf::dsp::PwlWaveform w({{0.0, 1.0}, {1.0, 3.0}});
  EXPECT_DOUBLE_EQ(w.sample(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(w.sample(10.0), 3.0);
}

TEST(Pwl, NonMonotonicTimesThrow) {
  EXPECT_THROW(stf::dsp::PwlWaveform({{0.0, 0.0}, {0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(stf::dsp::PwlWaveform({{1.0, 0.0}, {0.5, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(stf::dsp::PwlWaveform({{0.0, 0.0}}), std::invalid_argument);
}

TEST(Pwl, UniformConstruction) {
  auto w = stf::dsp::PwlWaveform::uniform(1e-6, {0.0, 1.0, -1.0, 0.0});
  EXPECT_DOUBLE_EQ(w.duration(), 1e-6);
  EXPECT_EQ(w.points().size(), 4u);
  EXPECT_DOUBLE_EQ(w.points()[1].t, 1e-6 / 3.0);
  EXPECT_DOUBLE_EQ(w.peak(), 1.0);
}

TEST(Pwl, RenderSampleCountAndValues) {
  auto w = stf::dsp::PwlWaveform::uniform(1.0, {0.0, 1.0});
  auto s = w.render(4.0);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[2], 0.5);
  EXPECT_DOUBLE_EQ(s[4], 1.0);
}

TEST(Pwl, ScaledMultipliesValues) {
  auto w = stf::dsp::PwlWaveform::uniform(1.0, {1.0, -2.0});
  auto s = w.scaled(0.5);
  EXPECT_DOUBLE_EQ(s.points()[0].v, 0.5);
  EXPECT_DOUBLE_EQ(s.points()[1].v, -1.0);
}

// -------------------------------------------------------------- resample --

TEST(Resample, IdentityWhenRatesEqual) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  auto y = stf::dsp::resample_linear(x, 10.0, 10.0);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-12);
}

TEST(Resample, DownsampleRamp) {
  // A ramp is reproduced exactly by linear interpolation.
  std::vector<double> x(101);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  auto y = stf::dsp::resample_linear(x, 100.0, 10.0);
  ASSERT_EQ(y.size(), 11u);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], static_cast<double>(i) * 10.0, 1e-9);
}

TEST(Resample, ToneSurvivesModerateResampling) {
  const double fs_in = 200.0;
  auto x = make_tone(1.0, 10.0, fs_in, 400);
  auto y = stf::dsp::resample_linear(x, fs_in, 80.0);
  EXPECT_NEAR(stf::dsp::tone_amplitude(y, 10.0, 80.0), 1.0, 0.02);
}

TEST(Resample, InvalidInputsThrow) {
  std::vector<double> x{1.0};
  EXPECT_THROW(stf::dsp::resample_linear(x, 1.0, 1.0), std::invalid_argument);
}

}  // namespace
