// Tests for the envelope-domain RF module: envelope algebra, behavioral
// DUTs, load board, digitizer, spec measurement, populations.
#include <cmath>
#include <complex>
#include <numbers>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "dsp/spectrum.hpp"
#include "rf/dut.hpp"
#include "rf/envelope.hpp"
#include "rf/loadboard.hpp"
#include "rf/population.hpp"
#include "rf/specmeas.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf::rf;

// ---------------------------------------------------------------- envelope --

TEST(Envelope, PowerOfConstantEnvelope) {
  EnvelopeSignal env;
  env.fs = 1.0;
  env.x.assign(16, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(envelope_power(env), 25.0);
}

// --------------------------------------------------------------------- DUT --

TEST(Dut, IdealGainScales) {
  IdealGainDut dut(Cplx(2.0, 0.0));
  EnvelopeSignal in;
  in.fs = 1e6;
  in.x = {{0.5, 0.0}, {0.0, -1.0}};
  auto out = dut.process(in, nullptr);
  EXPECT_DOUBLE_EQ(out.x[0].real(), 1.0);
  EXPECT_DOUBLE_EQ(out.x[1].imag(), -2.0);
}

TEST(Dut, BehavioralLnaSmallSignalGain) {
  BehavioralLna dut(Cplx(0.0, 5.0), /*iip3_v=*/0.5, /*nf_db=*/3.0);
  EnvelopeSignal in;
  in.fs = 1e6;
  in.x = {{1e-4, 0.0}};  // far below compression
  auto out = dut.process(in, nullptr);
  EXPECT_NEAR(std::abs(out.x[0]), 5.0 * 1e-4, 5e-9);
}

TEST(Dut, CompressionReducesLargeSignalGain) {
  BehavioralLna dut(Cplx(5.0, 0.0), 0.5, 0.0);
  EnvelopeSignal in;
  in.fs = 1e6;
  in.x = {{0.25, 0.0}};  // half the IP3 amplitude
  auto out = dut.process(in, nullptr);
  // Saturating AM/AM: gain factor 1/sqrt(1 + 2 |x|^2/A^2) = 1/sqrt(1.5).
  EXPECT_NEAR(std::abs(out.x[0]), 5.0 * 0.25 / std::sqrt(1.5), 1e-12);
}

TEST(Dut, NoiseOnlyWhenRngProvided) {
  BehavioralLna dut(Cplx(5.0, 0.0), 0.5, 6.0);
  EnvelopeSignal in;
  in.fs = 20e6;
  in.x.assign(512, {0.0, 0.0});
  auto clean = dut.process(in, nullptr);
  for (const auto& v : clean.x) EXPECT_EQ(v, Cplx(0.0, 0.0));
  stf::stats::Rng rng(5);
  auto noisy = dut.process(in, &rng);
  EXPECT_GT(envelope_power(noisy), 0.0);
}

TEST(Dut, HigherNfMeansMoreNoise) {
  EnvelopeSignal in;
  in.fs = 20e6;
  in.x.assign(4096, {0.0, 0.0});
  BehavioralLna quiet(Cplx(5.0, 0.0), 0.5, 1.0);
  BehavioralLna loud(Cplx(5.0, 0.0), 0.5, 10.0);
  stf::stats::Rng rng_a(5), rng_b(5);
  const double p_quiet = envelope_power(quiet.process(in, &rng_a));
  const double p_loud = envelope_power(loud.process(in, &rng_b));
  EXPECT_GT(p_loud, 3.0 * p_quiet);
}

TEST(Dut, InvalidConstructionThrows) {
  EXPECT_CONTRACT_THROW(BehavioralLna(Cplx(1.0, 0.0), 0.0, 3.0),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(BehavioralLna(Cplx(1.0, 0.0), 0.5, 3.0, -50.0),
                        std::invalid_argument);
}

TEST(Dut, Iip3AmplitudeConversion) {
  // 0 dBm available -> A = sqrt(8 * 50 * 1 mW) = 0.632 V EMF.
  EXPECT_NEAR(iip3_dbm_to_source_amplitude(0.0), std::sqrt(0.4), 1e-12);
}

TEST(Dut, ExtractedLnaMatchesCircuitSpecs) {
  auto ch = extract_lna_dut(stf::circuit::Lna900::nominal());
  // The behavioral gain magnitude must reproduce the circuit's transducer
  // gain through the standard conversion.
  const double gt =
      transducer_gain_db_from_h(std::abs(ch.dut->gain()));
  EXPECT_NEAR(gt, ch.specs.gain_db, 1e-9);
  EXPECT_NEAR(ch.dut->nf_db(), ch.specs.nf_db, 1e-12);
  EXPECT_NEAR(ch.dut->iip3_v(),
              iip3_dbm_to_source_amplitude(ch.specs.iip3_dbm), 1e-12);
}

// --------------------------------------------------------------- load board --

TEST(LoadBoard, GainDeviceScalesStimulus) {
  LoadBoardConfig cfg;
  cfg.lo_offset_hz = 0.0;
  cfg.path_phase_rad = 0.0;
  cfg.up_mixer.conversion_gain_db = 0.0;
  cfg.up_mixer.iip3_dbm = 100.0;  // effectively linear
  cfg.down_mixer = cfg.up_mixer;
  cfg.lpf_cutoff_hz = 10e6;
  LoadBoard board(cfg);
  IdealGainDut dut(Cplx(3.0, 0.0));

  // A slow ramp passes the LPF almost unchanged; output = 3 * input.
  const double fs = 80e6;
  std::vector<double> stim(400);
  for (std::size_t i = 0; i < stim.size(); ++i)
    stim[i] = 0.1 * std::sin(2.0 * std::numbers::pi * 1e6 *
                             static_cast<double>(i) / fs);
  auto out = board.run(stim, fs, dut, nullptr);
  std::vector<double> mid(out.begin() + 100, out.end());
  EXPECT_NEAR(stf::dsp::tone_amplitude(mid, 1e6, fs), 0.3, 0.01);
}

TEST(LoadBoard, Equation4PhaseCancellation) {
  // f1 == f2: signature output scales with cos(phi) and vanishes at
  // phi = pi/2 (the paper's Eq. 4 hazard).
  LoadBoardConfig cfg;
  cfg.lo_offset_hz = 0.0;
  cfg.up_mixer.iip3_dbm = 100.0;
  cfg.down_mixer.iip3_dbm = 100.0;
  IdealGainDut dut(Cplx(2.0, 0.0));
  const double fs = 80e6;
  std::vector<double> stim(400, 0.0);
  for (std::size_t i = 0; i < stim.size(); ++i)
    stim[i] = 0.1 * std::sin(2.0 * std::numbers::pi * 1e6 *
                             static_cast<double>(i) / fs);

  cfg.path_phase_rad = 0.0;
  const auto out0 = LoadBoard(cfg).run(stim, fs, dut, nullptr);
  cfg.path_phase_rad = std::numbers::pi / 2.0;
  const auto out90 = LoadBoard(cfg).run(stim, fs, dut, nullptr);

  const double p0 = stf::dsp::signal_power(out0);
  const double p90 = stf::dsp::signal_power(out90);
  EXPECT_LT(p90, p0 * 1e-6);
}

TEST(LoadBoard, OffsetLoMakesMagnitudePhaseInvariant) {
  // With offset LOs the *energy* of the signature is phase-independent
  // (Eq. 5: phi only rotates the beat).
  LoadBoardConfig cfg;
  cfg.lo_offset_hz = 100e3;
  cfg.up_mixer.iip3_dbm = 100.0;
  cfg.down_mixer.iip3_dbm = 100.0;
  IdealGainDut dut(Cplx(2.0, 0.0));
  const double fs = 80e6;
  // Long capture so the beat averages out.
  std::vector<double> stim(8000, 0.05);

  cfg.path_phase_rad = 0.3;
  const auto out_a = LoadBoard(cfg).run(stim, fs, dut, nullptr);
  cfg.path_phase_rad = 2.1;
  const auto out_b = LoadBoard(cfg).run(stim, fs, dut, nullptr);
  EXPECT_NEAR(stf::dsp::signal_power(out_a), stf::dsp::signal_power(out_b),
              stf::dsp::signal_power(out_a) * 0.02);
}

TEST(LoadBoard, MixerFeedthroughAddsDcOffset) {
  LoadBoardConfig cfg;
  cfg.lo_offset_hz = 0.0;
  cfg.up_mixer.iip3_dbm = 100.0;
  cfg.down_mixer.iip3_dbm = 100.0;
  cfg.down_mixer.lo_feedthrough_v = 0.05;
  LoadBoard board(cfg);
  IdealGainDut dut(Cplx(1.0, 0.0));
  std::vector<double> stim(2000, 0.0);
  auto out = board.run(stim, 80e6, dut, nullptr);
  // After LPF settling the output equals the DC feedthrough.
  EXPECT_NEAR(out.back(), 0.05, 1e-3);
}

TEST(LoadBoard, InvalidRunArgumentsThrow) {
  LoadBoardConfig cfg;
  LoadBoard board(cfg);
  IdealGainDut dut(Cplx(1.0, 0.0));
  EXPECT_CONTRACT_THROW(board.run({}, 80e6, dut, nullptr),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(
      board.run(std::vector<double>(10, 0.1), 1e6, dut, nullptr),
      std::invalid_argument);  // fs below 2x LPF cutoff
}

// ---------------------------------------------------------------- digitizer --

TEST(Digitizer, ResamplesToCaptureRate) {
  Digitizer dig;
  dig.fs_hz = 20e6;
  dig.noise_rms_v = 0.0;
  std::vector<double> analog(801, 1.0);  // 10 us at 80 MHz
  auto samples = dig.capture(analog, 80e6, nullptr);
  EXPECT_EQ(samples.size(), 201u);  // 10 us at 20 MHz + 1
  EXPECT_DOUBLE_EQ(samples[100], 1.0);
}

TEST(Digitizer, NoiseRequiresRng) {
  Digitizer dig;
  dig.fs_hz = 20e6;
  dig.noise_rms_v = 1e-3;
  std::vector<double> analog(801, 0.0);
  auto clean = dig.capture(analog, 80e6, nullptr);
  for (double v : clean) EXPECT_EQ(v, 0.0);
  stf::stats::Rng rng(3);
  auto noisy = dig.capture(analog, 80e6, &rng);
  double power = 0.0;
  for (double v : noisy) power += v * v;
  power /= static_cast<double>(noisy.size());
  EXPECT_NEAR(std::sqrt(power), 1e-3, 3e-4);
}

TEST(Digitizer, QuantizationSnapsToLsb) {
  Digitizer dig;
  dig.fs_hz = 1e6;
  dig.noise_rms_v = 0.0;
  dig.bits = 3;  // LSB = 1/4 with full scale 1
  dig.full_scale_v = 1.0;
  std::vector<double> analog{0.1, 0.3, 0.9, 5.0, -5.0};
  auto q = dig.capture(analog, 1e6, nullptr);
  EXPECT_DOUBLE_EQ(q[0], 0.0);
  EXPECT_DOUBLE_EQ(q[1], 0.25);
  EXPECT_DOUBLE_EQ(q[3], 1.0);    // clipped
  EXPECT_DOUBLE_EQ(q[4], -1.0);   // clipped
}

// ----------------------------------------------------------------- specmeas --

TEST(SpecMeas, GainOfIdealDut) {
  MeasureConfig cfg;
  IdealGainDut dut(Cplx(0.0, 4.0));  // |H| = 4
  const double expected = transducer_gain_db_from_h(4.0);
  EXPECT_NEAR(measure_gain_db(dut, cfg), expected, 0.01);
}

TEST(SpecMeas, GainConversionRoundTrip) {
  for (double g : {-10.0, 0.0, 12.0, 15.5}) {
    EXPECT_NEAR(transducer_gain_db_from_h(h_mag_from_transducer_gain_db(g)),
                g, 1e-12);
  }
}

TEST(SpecMeas, Iip3OfBehavioralDutMatchesConstruction) {
  const double iip3_dbm = -8.0;
  BehavioralLna dut(Cplx(5.0, 0.0), iip3_dbm_to_source_amplitude(iip3_dbm),
                    0.0);
  MeasureConfig cfg;
  EXPECT_NEAR(measure_iip3_dbm(dut, cfg), iip3_dbm, 0.15);
}

TEST(SpecMeas, NfOfBehavioralDutMatchesConstruction) {
  BehavioralLna dut(Cplx(5.0, 0.0), 1.0, 4.0);
  MeasureConfig cfg;
  stf::stats::Rng rng(11);
  EXPECT_NEAR(measure_nf_db(dut, cfg, rng, 16), 4.0, 0.4);
}

TEST(SpecMeas, P1dbTracksIip3MinusNine) {
  // For the saturating AM/AM model the 1 dB compression point sits at
  // 1/sqrt(1+2r) = 10^(-1/20) -> r = 0.1295 -> P1dB = IIP3 - 8.88 dB.
  const double iip3_dbm = 0.0;
  BehavioralLna dut(Cplx(5.0, 0.0), iip3_dbm_to_source_amplitude(iip3_dbm),
                    0.0);
  MeasureConfig cfg;
  EXPECT_NEAR(measure_p1db_dbm(dut, cfg), iip3_dbm - 8.88, 0.4);
}

TEST(SpecMeas, LinearDutHasNoP1db) {
  IdealGainDut dut(Cplx(2.0, 0.0));
  MeasureConfig cfg;
  EXPECT_THROW(measure_p1db_dbm(dut, cfg), std::runtime_error);
}

TEST(SpecMeas, EnvelopeMeasurementsAgreeWithCircuitSpecs) {
  // The behavioral bridge must hand the conventional envelope tester the
  // same specs the circuit engine computed.
  auto ch = extract_lna_dut(stf::circuit::Lna900::nominal());
  MeasureConfig cfg;
  cfg.level_dbm = -45.0;  // keep the gain tone clear of compression
  EXPECT_NEAR(measure_gain_db(*ch.dut, cfg), ch.specs.gain_db, 0.05);
  cfg.level_dbm = -30.0;
  EXPECT_NEAR(measure_iip3_dbm(*ch.dut, cfg), ch.specs.iip3_dbm, 0.2);
  stf::stats::Rng rng(13);
  EXPECT_NEAR(measure_nf_db(*ch.dut, cfg, rng, 16), ch.specs.nf_db, 0.4);
}

// --------------------------------------------------------------- population --

TEST(Population, LnaPopulationSizeAndVariation) {
  auto devices = make_lna_population(10, 0.2, 1);
  ASSERT_EQ(devices.size(), 10u);
  bool gain_varies = false;
  for (std::size_t i = 1; i < devices.size(); ++i)
    gain_varies |= devices[i].specs.gain_db != devices[0].specs.gain_db;
  EXPECT_TRUE(gain_varies);
  for (const auto& d : devices) {
    EXPECT_EQ(d.process.size(), stf::circuit::Lna900::kNumParams);
    EXPECT_NE(d.dut, nullptr);
  }
}

TEST(Population, LnaPopulationIsSeedDeterministic) {
  auto a = make_lna_population(5, 0.2, 99);
  auto b = make_lna_population(5, 0.2, 99);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a[i].specs.gain_db, b[i].specs.gain_db);
}

TEST(Population, Rf401PopulationStatistics) {
  Rf401Options opts;
  opts.n = 400;
  auto devices = make_rf401_population(opts, 3);
  ASSERT_EQ(devices.size(), 400u);
  std::vector<double> gain, iip3;
  for (const auto& d : devices) {
    gain.push_back(d.specs.gain_db);
    iip3.push_back(d.specs.iip3_dbm);
  }
  double gm = 0.0;
  for (double g : gain) gm += g;
  gm /= gain.size();
  EXPECT_NEAR(gm, opts.gain_nominal_db, 0.3);
  // Gain and IIP3 share latent factors: they must be correlated.
  double cov = 0.0, vg = 0.0, vi = 0.0, im = 0.0;
  for (double v : iip3) im += v;
  im /= iip3.size();
  for (std::size_t i = 0; i < gain.size(); ++i) {
    cov += (gain[i] - gm) * (iip3[i] - im);
    vg += (gain[i] - gm) * (gain[i] - gm);
    vi += (iip3[i] - im) * (iip3[i] - im);
  }
  EXPECT_GT(cov / std::sqrt(vg * vi), 0.1);
}

TEST(Population, SplitSizesAndErrors) {
  auto devices = make_rf401_population({}, 5);  // default n = 55
  auto split = split_population(devices, 28);
  EXPECT_EQ(split.calibration.size(), 28u);
  EXPECT_EQ(split.validation.size(), 27u);
  EXPECT_CONTRACT_THROW(split_population(devices, 0), std::invalid_argument);
  EXPECT_CONTRACT_THROW(split_population(devices, 55), std::invalid_argument);
}

}  // namespace
