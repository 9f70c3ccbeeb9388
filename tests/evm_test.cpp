// Tests for RRC pulse shaping and the QPSK EVM measurement.
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/fir.hpp"
#include "dsp/rrc.hpp"
#include "rf/dut.hpp"
#include "rf/evm.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;

// ------------------------------------------------------------------- RRC --

TEST(Rrc, UnitEnergyAndSymmetry) {
  const auto h = dsp::design_rrc(0.35, 8, 6);
  EXPECT_EQ(h.size(), 2u * 6u * 8u + 1u);
  double energy = 0.0;
  for (double v : h) energy += v * v;
  EXPECT_NEAR(energy, 1.0, 1e-9);
  for (std::size_t i = 0; i < h.size(); ++i)
    EXPECT_NEAR(h[i], h[h.size() - 1 - i], 1e-12);
}

TEST(Rrc, CascadeIsNyquist) {
  // RRC * RRC = raised cosine: zero ISI at nonzero symbol instants.
  const std::size_t sps = 8;
  const auto h = dsp::design_rrc(0.35, sps, 8);
  // Full convolution of h with itself.
  std::vector<double> rc(2 * h.size() - 1, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i)
    for (std::size_t j = 0; j < h.size(); ++j) rc[i + j] += h[i] * h[j];
  const std::size_t center = h.size() - 1;
  const double peak = rc[center];
  EXPECT_GT(peak, 0.5);
  for (int k = 1; k <= 6; ++k) {
    EXPECT_NEAR(rc[center + static_cast<std::size_t>(k) * sps] / peak, 0.0,
                2e-3)
        << "symbol offset " << k;
    EXPECT_NEAR(rc[center - static_cast<std::size_t>(k) * sps] / peak, 0.0,
                2e-3);
  }
}

TEST(Rrc, SingularityPointsAreFinite) {
  // t = 1/(4 beta) lands exactly on a sample for beta 0.25 and sps = 8.
  const auto h = dsp::design_rrc(0.25, 8, 6);
  for (double v : h) EXPECT_TRUE(std::isfinite(v));
  // beta = 0 degenerates to a sinc; still finite everywhere.
  const auto sinc = dsp::design_rrc(0.0, 8, 6);
  for (double v : sinc) EXPECT_TRUE(std::isfinite(v));
}

TEST(Rrc, BadArgumentsThrow) {
  EXPECT_CONTRACT_THROW(dsp::design_rrc(-0.1, 8, 6), std::invalid_argument);
  EXPECT_CONTRACT_THROW(dsp::design_rrc(1.1, 8, 6), std::invalid_argument);
  EXPECT_CONTRACT_THROW(dsp::design_rrc(0.3, 1, 6), std::invalid_argument);
  EXPECT_CONTRACT_THROW(dsp::design_rrc(0.3, 8, 0), std::invalid_argument);
}

// ------------------------------------------------------------------- EVM --

TEST(Evm, LinearDutHasResidualFloorOnly) {
  rf::EvmConfig cfg;
  rf::IdealGainDut dut({5.0, 0.0});
  const double evm = rf::measure_evm_percent(dut, cfg, nullptr);
  EXPECT_LT(evm, 0.5);  // finite-span RRC leaves a small ISI floor
}

TEST(Evm, InvariantToLinearGainAndPhase) {
  rf::EvmConfig cfg;
  rf::IdealGainDut a({2.0, 0.0});
  rf::IdealGainDut b({-1.0, 7.0});  // arbitrary complex gain
  EXPECT_NEAR(rf::measure_evm_percent(a, cfg, nullptr),
              rf::measure_evm_percent(b, cfg, nullptr), 1e-9);
}

TEST(Evm, CompressionRaisesEvmMonotonically) {
  rf::EvmConfig cfg;
  double prev = 0.0;
  bool first = true;
  for (double iip3 : {10.0, 0.0, -5.0, -10.0}) {
    rf::BehavioralLna dut({3.0, 0.0},
                          rf::iip3_dbm_to_source_amplitude(iip3), 0.0);
    const double evm = rf::measure_evm_percent(dut, cfg, nullptr);
    if (!first) {
      EXPECT_GT(evm, prev - 1e-9);
    }
    prev = evm;
    first = false;
  }
  EXPECT_GT(prev, 1.0);  // -10 dBm IIP3 at -20 dBm drive: >1% EVM
}

TEST(Evm, DriveLevelRaisesDistortionEvm) {
  rf::BehavioralLna dut({3.0, 0.0}, rf::iip3_dbm_to_source_amplitude(-5.0),
                        0.0);
  rf::EvmConfig lo;
  lo.level_dbm = -35.0;
  rf::EvmConfig hi;
  hi.level_dbm = -15.0;
  EXPECT_GT(rf::measure_evm_percent(dut, hi, nullptr),
            2.0 * rf::measure_evm_percent(dut, lo, nullptr));
}

TEST(Evm, NoiseRaisesEvmAtLowDrive) {
  rf::EvmConfig cfg;
  cfg.level_dbm = -70.0;  // weak signal: the noise floor matters
  rf::BehavioralLna quiet({3.0, 0.0}, 1e9, 0.0);
  rf::BehavioralLna noisy({3.0, 0.0}, 1e9, 15.0);
  stats::Rng rng_a(3), rng_b(3);
  const double evm_quiet = rf::measure_evm_percent(quiet, cfg, &rng_a);
  const double evm_noisy = rf::measure_evm_percent(noisy, cfg, &rng_b);
  EXPECT_GT(evm_noisy, 2.0 * evm_quiet);
}

TEST(Evm, DeterministicForSeed) {
  rf::EvmConfig cfg;
  rf::BehavioralLna dut({3.0, 0.0}, 0.5, 0.0);
  EXPECT_DOUBLE_EQ(rf::measure_evm_percent(dut, cfg, nullptr),
                   rf::measure_evm_percent(dut, cfg, nullptr));
}

TEST(Evm, TooFewSymbolsThrows) {
  rf::EvmConfig cfg;
  cfg.n_symbols = 8;
  rf::IdealGainDut dut({1.0, 0.0});
  EXPECT_CONTRACT_THROW(rf::measure_evm_percent(dut, cfg, nullptr),
                        std::invalid_argument);
}

}  // namespace
