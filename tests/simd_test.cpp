// SIMD kernels vs their scalar references, and the arena allocator's
// zero-heap contract.
//
// The determinism story of the SIMD pass is that the scalar path is the
// bit-exact reference: every vectorized kernel (FFT butterflies, biquad
// cascades, mixer/LNA envelope math, the noise draws) must produce
// bit-identical doubles with SIMD enabled and disabled, on friendly and
// adversarial inputs (denormals, NaNs, remainder tails at every lane
// count). These tests flip the runtime kill switch (core::simd::set_enabled)
// inside one process and memcmp the results.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "dsp/iir.hpp"
#include "dsp/pwl.hpp"
#include "circuit/lna900.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pinv_lanes.hpp"
#include "linalg/svd.hpp"
#include "rf/dut.hpp"
#include "rf/loadboard.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/sensitivity.hpp"
#include "simd_lane_ops_checks.hpp"
#include "stats/rng.hpp"
#include "test_contracts.hpp"

namespace {

using namespace stf;
namespace simd = stf::core::simd;

// Restores the SIMD kill switch to its environment default on scope exit so
// one test cannot poison another.
struct SimdGuard {
  ~SimdGuard() { simd::clear_enabled_override(); }
};

bool bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && bits_equal(a.data(), b.data(), a.size());
}

bool bits_equal(const std::vector<dsp::cplx>& a,
                const std::vector<dsp::cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(dsp::cplx)) == 0;
}

std::vector<double> random_vector(std::size_t n, stats::Rng& rng,
                                  double scale = 1.0) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, scale);
  return v;
}

// --- SIMD primitive semantics (compiled backend) ---

TEST(SimdPrimitives, LoadStoreRoundTripAndArithmetic) {
  alignas(64) double in[simd::kLanes];
  alignas(64) double out[simd::kLanes];
  for (std::size_t i = 0; i < simd::kLanes; ++i)
    in[i] = 1.5 * static_cast<double>(i) - 2.0;
  const simd::VecD v = simd::load(in);
  simd::store(out, v);
  EXPECT_TRUE(bits_equal(in, out, simd::kLanes));

  const simd::VecD s = v + v * simd::broadcast(3.0);
  simd::store(out, s);
  for (std::size_t i = 0; i < simd::kLanes; ++i)
    EXPECT_EQ(out[i], in[i] + in[i] * 3.0);
}

TEST(SimdPrimitives, ComplexMulMatchesScalarComplexProduct) {
  // complex_mul on interleaved (re, im) pairs must equal the explicit
  // real-arithmetic complex product, lane for lane, bitwise.
  stats::Rng rng(101);
  alignas(64) double x[simd::kLanes];
  alignas(64) double w[simd::kLanes];
  alignas(64) double p[simd::kLanes];
  for (std::size_t i = 0; i < simd::kLanes; ++i) {
    x[i] = rng.normal(0.0, 1.0);
    w[i] = rng.normal(0.0, 1.0);
  }
  simd::store(p, simd::complex_mul(simd::load(x), simd::load(w)));
  for (std::size_t i = 0; i + 1 < simd::kLanes || i == 0; i += 2) {
    if (simd::kLanes < 2) break;
    const double re = x[i] * w[i] - x[i + 1] * w[i + 1];
    const double im = x[i + 1] * w[i] + x[i] * w[i + 1];
    EXPECT_EQ(p[i], re);
    EXPECT_EQ(p[i + 1], im);
  }
}

TEST(SimdPrimitives, IntegerLanesMatchTheirScalarOperations) {
  // The noise kernel's primitives, lane by lane against the scalar
  // operation: bit ops, wrapping subtract, shifts, the exact conversion of
  // integers below 2^53 (AVX2 and SSE2 split them in two), the table
  // lookup, the less-than mask (false for NaN) and the strided load/store.
  constexpr std::size_t kL = simd::kLanes;
  const std::uint64_t values[8] = {0,
                                   1,
                                   (1ULL << 26) - 1,
                                   1ULL << 26,
                                   (1ULL << 53) - 1,
                                   0x0123456789ABCDEFULL,
                                   ~0ULL,
                                   1ULL << 63};
  double table[256];
  for (std::size_t i = 0; i < 256; ++i)
    table[i] = 0.5 * static_cast<double>(i);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double lhs[8] = {1.0, 2.0, -0.0, nan, 3.0, 1.0, -1.0, 0.0};
  const double rhs[8] = {2.0, 2.0, 0.0, 1.0, nan, 0.5, 1.0, 1e-300};
  for (std::size_t base = 0; base + kL <= 8; base += kL) {
    const std::uint64_t* a = values + base;
    std::uint64_t b[kL];
    for (std::size_t j = 0; j < kL; ++j) b[j] = values[7 - base - j];
    const simd::VecU64 va = simd::load(a);
    const simd::VecU64 vb = simd::load(b);
    std::uint64_t u[kL];
    double d[kL];
    const auto expect_u = [&](simd::VecU64 v, auto op, const char* what) {
      simd::store(u, v);
      for (std::size_t j = 0; j < kL; ++j)
        EXPECT_EQ(u[j], op(a[j], b[j])) << what << " lane " << base + j;
    };
    expect_u(va & vb, [](auto x, auto y) { return x & y; }, "and");
    expect_u(va | vb, [](auto x, auto y) { return x | y; }, "or");
    expect_u(va ^ vb, [](auto x, auto y) { return x ^ y; }, "xor");
    expect_u(va - vb, [](auto x, auto y) { return x - y; }, "sub");
    expect_u(simd::shift_right<11>(va), [](auto x, auto) { return x >> 11; },
             "shift_right");
    expect_u(simd::shift_left<55>(va), [](auto x, auto) { return x << 55; },
             "shift_left");
    expect_u(simd::as_bits(simd::as_double(va)),
             [](auto x, auto) { return x; }, "bit casts");
    simd::store(d, simd::to_double(simd::shift_right<11>(va)));
    for (std::size_t j = 0; j < kL; ++j)
      EXPECT_EQ(d[j], static_cast<double>(a[j] >> 11)) << "lane " << base + j;
    simd::store(d, simd::gather(table, va & simd::broadcast_u64(0xFF)));
    for (std::size_t j = 0; j < kL; ++j)
      EXPECT_EQ(d[j], table[a[j] & 0xFF]) << "lane " << base + j;
    const unsigned mask = simd::less_mask(simd::load(lhs + base),
                                          simd::load(rhs + base));
    for (std::size_t j = 0; j < kL; ++j)
      EXPECT_EQ((mask >> j) & 1u, lhs[base + j] < rhs[base + j] ? 1u : 0u)
          << "lane " << base + j;
    EXPECT_EQ(mask >> kL, 0u);
  }
  constexpr std::size_t kStride = 3;
  double strided[kL * kStride];
  for (std::size_t i = 0; i < kL * kStride; ++i)
    strided[i] = static_cast<double>(i);
  const simd::VecD picked = simd::load_strided(strided, kStride);
  simd::store_strided(strided, kStride, picked + simd::broadcast(100.0));
  for (std::size_t i = 0; i < kL * kStride; ++i) {
    const double added = i % kStride == 0 ? 100.0 : 0.0;
    EXPECT_EQ(strided[i], static_cast<double>(i) + added) << "element " << i;
  }
}

TEST(SimdPrimitives, AbsLeMaskAndBlendMatchScalarOps) {
  check_abs_le_mask_and_blend();
}

TEST(SimdPrimitives, KillSwitchDisablesDispatch) {
  SimdGuard guard;
  simd::set_enabled(false);
  EXPECT_FALSE(simd::enabled());
  simd::set_enabled(true);
  // enabled() may still be false on a scalar-only build; it must never be
  // true when the backend compiled out.
  if (!simd::compiled()) {
    EXPECT_FALSE(simd::enabled());
  }
}

// --- FFT: SIMD on/off bit-identity of the forward radix-2 kernel ---

// fft_pow2_inplace on a copy of x zero-padded to the next power of two, as
// the signature stage pads a capture.
std::vector<dsp::cplx> fft_padded(std::vector<dsp::cplx> x) {
  x.resize(dsp::next_pow2(x.size()), dsp::cplx{});
  dsp::fft_pow2_inplace(x);
  return x;
}

TEST(SimdFft, OnOffBitIdenticalAcrossSizes) {
  SimdGuard guard;
  stats::Rng rng(7);
  // Every power of two up to 1024: the first stages have fewer butterflies
  // per block than a vector holds, so the kernel's scalar tail runs too.
  for (std::size_t n = 1; n <= 1024; n *= 2) {
    std::vector<dsp::cplx> x(n);
    for (auto& v : x) {
      const double re = rng.normal(0.0, 1.0);
      const double im = rng.normal(0.0, 1.0);
      v = dsp::cplx(re, im);
    }
    simd::set_enabled(true);
    const auto on = fft_padded(x);
    simd::set_enabled(false);
    const auto off = fft_padded(x);
    EXPECT_TRUE(bits_equal(on, off)) << "fft n=" << n;
  }
}

TEST(SimdFft, DenormalInputsStayBitIdentical) {
  SimdGuard guard;
  std::vector<dsp::cplx> x(37);  // zero-padded to 64, like a capture
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = dsp::cplx(tiny * static_cast<double>(i + 1),
                     -tiny * static_cast<double>(i));
  simd::set_enabled(true);
  const auto on = fft_padded(x);
  simd::set_enabled(false);
  const auto off = fft_padded(x);
  EXPECT_TRUE(bits_equal(on, off));
}

TEST(SimdFft, NanPropagatesToEveryBinInBothModes) {
  // NaN policy: a poisoned sample contaminates the transform in both modes
  // (position-identical non-finiteness); payload bits are not compared
  // because vector and scalar complex products may produce different NaN
  // payloads. The signature path's firewall rejects either way.
  SimdGuard guard;
  std::vector<dsp::cplx> x(16, dsp::cplx(1.0, 0.0));
  x[5] = dsp::cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  for (bool on : {true, false}) {
    simd::set_enabled(on);
    const auto spec = fft_padded(x);
    for (const auto& v : spec)
      EXPECT_TRUE(std::isnan(v.real()) || std::isnan(v.imag()));
  }
}

TEST(SimdFft, PlanTablesAreLaneAligned) {
  EXPECT_GE(dsp::fft_plan_table_alignment(), simd::kAlignment);
  for (std::size_t n : {2u, 8u, 64u, 1024u, 4096u})
    EXPECT_TRUE(dsp::fft_plan_tables_aligned(n)) << "n=" << n;
}

// --- IIR biquad cascade: interleaved-channel kernel ---

TEST(SimdIir, ComplexFilterOnOffBitIdentical) {
  SimdGuard guard;
  stats::Rng rng(31);
  for (std::size_t n : {1u, 2u, 3u, 17u, 256u}) {
    const auto lpf = dsp::butterworth_lowpass(5, 0.1, 1.0);
    std::vector<std::complex<double>> x(n);
    for (auto& v : x) {
      const double re = rng.normal(0.0, 1.0);
      const double im = rng.normal(0.0, 1.0);
      v = {re, im};
    }
    auto on = x;
    auto off = x;
    simd::set_enabled(true);
    lpf.filter_inplace(std::span<std::complex<double>>(on));
    simd::set_enabled(false);
    lpf.filter_inplace(std::span<std::complex<double>>(off));
    ASSERT_EQ(on.size(), off.size());
    EXPECT_EQ(std::memcmp(on.data(), off.data(),
                          n * sizeof(std::complex<double>)),
              0)
        << "n=" << n;
  }
}

TEST(SimdIir, InterleavedMatchesPerChannelScalarAtEveryWidth) {
  // Multi-channel interleaving fills lanes with independent captures; each
  // channel must reproduce the scalar single-channel filter bitwise at
  // every channel count, including lane-remainder widths (1-9 channels
  // cover every lane count up to 4 twice plus a remainder), and at every
  // filter order up to 10: one to three fused passes, each with one to
  // four sections.
  SimdGuard guard;
  stats::Rng rng(37);
  const std::size_t n = 64;
  for (std::size_t order = 1; order <= 10; ++order) {
    const auto lpf = dsp::butterworth_lowpass(order, 0.2, 1.0);
    for (std::size_t ch = 1; ch <= 9; ++ch) {
      std::vector<std::vector<double>> channels(ch);
      std::vector<double> interleaved(n * ch);
      for (std::size_t c = 0; c < ch; ++c) {
        channels[c] = random_vector(n, rng);
        for (std::size_t i = 0; i < n; ++i)
          interleaved[i * ch + c] = channels[c][i];
      }
      simd::set_enabled(true);
      lpf.filter_interleaved(interleaved, ch);
      simd::set_enabled(false);
      for (auto& c : channels) lpf.filter_inplace(c);
      for (std::size_t c = 0; c < ch; ++c)
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(interleaved[i * ch + c]),
                    std::bit_cast<std::uint64_t>(channels[c][i]))
              << "order=" << order << " ch=" << ch << " c=" << c
              << " i=" << i;
    }
  }
}

TEST(SimdIir, DenormalTailDecayBitIdentical) {
  SimdGuard guard;
  const auto lpf = dsp::butterworth_lowpass(5, 0.01, 1.0);
  // An impulse through a narrow filter decays into denormal territory.
  std::vector<std::complex<double>> x(2048, {0.0, 0.0});
  x[0] = {1e-300, -1e-300};
  auto on = x;
  auto off = x;
  simd::set_enabled(true);
  lpf.filter_inplace(std::span<std::complex<double>>(on));
  simd::set_enabled(false);
  lpf.filter_inplace(std::span<std::complex<double>>(off));
  EXPECT_EQ(
      std::memcmp(on.data(), off.data(), x.size() * sizeof(x[0])), 0);
}

// --- RF envelope kernels: mixer + LNA + full board ---

TEST(SimdRf, MixerPreservesSignedZero) {
  // The mixer gain is real: a -0.0 quadrature must stay -0.0 (a complex
  // kernel with gain (g, 0) would compute g*re - 0*im and flip it).
  SimdGuard guard;
  rf::MixerModel mixer;
  std::vector<rf::Cplx> x(simd::kLanes, rf::Cplx(0.5, -0.0));
  simd::set_enabled(true);
  mixer.apply(std::span<rf::Cplx>(x));
  for (const auto& v : x) EXPECT_TRUE(std::signbit(v.imag()));
}

TEST(SimdRf, BoardRunOnOffBitIdenticalWithNoise) {
  SimdGuard guard;
  rf::LoadBoardConfig bc;
  bc.lo_offset_hz = 100e3;
  bc.lpf_cutoff_hz = 10e6;
  bc.down_mixer.lo_feedthrough_v = 5e-3;
  const double fs = 80e6;
  const rf::LoadBoard board(bc, fs);
  const rf::BehavioralLna lna(rf::Cplx(8.0, 1.2), 0.4, 3.0);
  stats::Rng seed_rng(53);
  for (std::size_t n : {3u, 37u, 400u, 401u}) {
    const std::vector<double> stim = random_vector(n, seed_rng, 0.2);
    simd::set_enabled(true);
    stats::Rng r_on(99);
    const auto on = board.run(stim, fs, lna, &r_on);
    simd::set_enabled(false);
    stats::Rng r_off(99);
    const auto off = board.run(stim, fs, lna, &r_off);
    EXPECT_TRUE(bits_equal(on, off)) << "n=" << n;
  }
}

// --- GA lanes: batched signatures and pseudoinverses ---

// signatures_into over the first n captures for every n up to 2w + 1,
// with SIMD on and off, against signature_into on each capture.
void expect_signatures_match(const sigtest::SignatureTestConfig& cfg,
                             std::size_t max_bins) {
  SimdGuard guard;
  const sigtest::SignatureAcquirer acq(cfg, max_bins);
  const std::size_t n_cap = acq.capture_length();
  const std::size_t m = acq.signature_length();
  stats::Rng rng(31);
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    const std::size_t w = dsp::fft_lane_width();
    for (std::size_t n = 1; n <= 2 * w + 1; ++n) {
      const std::vector<double> captures = random_vector(n * n_cap, rng, 0.1);
      std::vector<double> want(n * m), got(n * m);
      for (std::size_t i = 0; i < n; ++i)
        acq.signature_into({captures.data() + i * n_cap, n_cap},
                           {want.data() + i * m, m});
      acq.signatures_into(captures, n, got);
      EXPECT_TRUE(bits_equal(want, got))
          << "n=" << n << " max_bins=" << max_bins
          << " fft=" << cfg.use_fft_magnitude << " simd=" << simd_on;
    }
  }
}

TEST(LaneSignatures, PooledFftSignaturesMatchSignatureInto) {
  // 64 kept bins pooled down to 16.
  expect_signatures_match(sigtest::SignatureTestConfig::simulation_study(),
                          16);
}

TEST(LaneSignatures, UnpooledFftSignaturesMatchSignatureInto) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer probe(cfg, 1024);
  ASSERT_GT(probe.signature_length(), 16u) << "kept bins must not pool";
  expect_signatures_match(cfg, 1024);
}

TEST(LaneSignatures, TimeDomainSignaturesMatchSignatureInto) {
  auto cfg = sigtest::SignatureTestConfig::simulation_study();
  cfg.use_fft_magnitude = false;
  expect_signatures_match(cfg, 16);
}

TEST(LaneSignatures, MismatchedShapesThrow) {
  const sigtest::SignatureAcquirer acq(
      sigtest::SignatureTestConfig::simulation_study(), 16);
  std::vector<double> captures(2 * acq.capture_length() + 1);
  std::vector<double> out(2 * acq.signature_length());
  EXPECT_CONTRACT_THROW(acq.signatures_into(captures, 2, out),
                        std::invalid_argument);
  captures.pop_back();
  out.pop_back();
  EXPECT_CONTRACT_THROW(acq.signatures_into(captures, 2, out),
                        std::invalid_argument);
  EXPECT_CONTRACT_THROW(acq.signatures_into(captures, 0, out),
                        std::invalid_argument);
}

TEST(LanePinv, RealSensitivityMatricesMatchPinv) {
  // The GA's own inputs: A_s of the LNA perturbation set for random
  // stimuli, factored in every group size up to two full passes.
  SimdGuard guard;
  simd::set_enabled(true);
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acq(cfg, 16);
  const sigtest::PerturbationSet perturbations(
      sigtest::lna900_factory(), circuit::Lna900::nominal(), 0.05);
  const std::size_t w = la::pinv_lane_width();
  stats::Rng rng(41);
  std::vector<la::Matrix> a_s;
  for (std::size_t i = 0; i < 2 * w + 1; ++i) {
    std::vector<double> levels(9);
    for (double& v : levels) v = rng.uniform(-0.4, 0.4);
    a_s.push_back(perturbations.signature_sensitivity(
        acq, dsp::PwlWaveform::uniform(cfg.capture_s, levels)));
  }
  for (std::size_t n = 1; n <= a_s.size(); ++n) {
    std::vector<la::Matrix> out(n);
    la::pinv_lanes({a_s.data(), n}, out);
    for (std::size_t i = 0; i < n; ++i) {
      const la::Matrix want = la::pinv(a_s[i]);
      EXPECT_TRUE(out[i].rows() == want.rows() &&
                  bits_equal(out[i].data(), want.data(), want.size()))
          << "matrix " << i << " of " << n;
    }
  }
}

// --- Device lanes: one device per lane through the board ---

// Devices with distinct gains, compression and noise figures, so a lane
// that read its neighbour's parameters would show.
std::vector<std::shared_ptr<rf::RfDut>> lane_devices(std::size_t n) {
  std::vector<std::shared_ptr<rf::RfDut>> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    out.push_back(std::make_shared<rf::BehavioralLna>(
        rf::Cplx(7.5 + 0.4 * x, 1.1 - 0.3 * x), 0.35 + 0.04 * x,
        2.5 + 0.3 * x));
  }
  return out;
}

std::vector<const rf::RfDut*> pointers(
    const std::vector<std::shared_ptr<rf::RfDut>>& devices) {
  std::vector<const rf::RfDut*> out;
  for (const auto& d : devices) out.push_back(d.get());
  return out;
}

// raw_capture_lanes over the first n devices for every n up to the set
// size, noisy and noiseless, with SIMD on and off, against per-device
// raw_capture_into: every capture bitwise, and every stream's next draw.
void expect_lanes_match_per_device(const sigtest::SignatureTestConfig& cfg,
                                   const std::vector<const rf::RfDut*>& duts) {
  SimdGuard guard;
  const sigtest::SignatureAcquirer acq(cfg, 16);
  const auto stimulus = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.3, -0.25, 0.4, -0.1, 0.2, -0.3, 0.05});
  const std::size_t n_cap = acq.capture_length();
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (const bool noisy : {true, false}) {
      for (std::size_t n = 1; n <= duts.size(); ++n) {
        std::vector<stats::Rng> ref_rngs, lane_rngs;
        for (std::size_t i = 0; i < n; ++i) {
          ref_rngs.emplace_back(500 + i);
          lane_rngs.emplace_back(500 + i);
        }
        std::vector<double> ref(n * n_cap), lanes(n * n_cap);
        std::vector<stats::Rng*> lane_ptrs(n, nullptr);
        for (std::size_t i = 0; i < n; ++i) {
          acq.raw_capture_into(*duts[i], stimulus,
                               noisy ? &ref_rngs[i] : nullptr,
                               std::span<double>(ref).subspan(i * n_cap,
                                                              n_cap));
          if (noisy) lane_ptrs[i] = &lane_rngs[i];
        }
        acq.raw_capture_lanes({duts.data(), n}, stimulus, lane_ptrs, lanes);
        EXPECT_TRUE(bits_equal(ref, lanes))
            << "n=" << n << " noisy=" << noisy << " simd=" << simd_on;
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ref_rngs[i].normal()),
                    std::bit_cast<std::uint64_t>(lane_rngs[i].normal()))
              << "stream " << i << " of n=" << n << " noisy=" << noisy
              << " simd=" << simd_on;
      }
    }
  }
}

TEST(DeviceLanes, RawCaptureLanesMatchesPerDeviceAtEveryGroupSize) {
  // 9 devices: two full groups and a remainder at every lane width up to 4.
  const auto devices = lane_devices(9);
  expect_lanes_match_per_device(
      sigtest::SignatureTestConfig::simulation_study(), pointers(devices));
}

TEST(DeviceLanes, NoiselessDevicesDigitizerAndQuantizerMatch) {
  // nf_db <= 0 (the DUT draws nothing), iip3_v = +inf (no compression), a
  // noiseless digitizer and a quantizing one.
  auto devices = lane_devices(5);
  devices[1] =
      std::make_shared<rf::BehavioralLna>(rf::Cplx(6.0, -2.0), 0.5, 0.0);
  devices[2] =
      std::make_shared<rf::BehavioralLna>(rf::Cplx(9.0, 0.5), 0.3, -1.0);
  devices[3] = std::make_shared<rf::BehavioralLna>(
      rf::Cplx(8.0, 1.0), std::numeric_limits<double>::infinity(), 3.0);
  auto cfg = sigtest::SignatureTestConfig::simulation_study();
  cfg.digitizer.noise_rms_v = 0.0;
  expect_lanes_match_per_device(cfg, pointers(devices));
  cfg = sigtest::SignatureTestConfig::simulation_study();
  cfg.digitizer.bits = 8;
  expect_lanes_match_per_device(cfg, pointers(devices));
}

TEST(DeviceLanes, GroupsThatMixInAnUnmodeledDeviceMatch) {
  // An IdealGainDut takes the per-device path; the LNAs around it still
  // group, and nobody's stream or capture moves.
  auto devices = lane_devices(6);
  devices.insert(devices.begin() + 2,
                 std::make_shared<rf::IdealGainDut>(rf::Cplx(5.0, 0.7)));
  expect_lanes_match_per_device(
      sigtest::SignatureTestConfig::simulation_study(), pointers(devices));
}

TEST(DeviceLanes, BoardLaneKernelMatchesPerDeviceWithSimdOnAndOff) {
  // LoadBoard::capture_lanes itself, at every group size it takes: with
  // SIMD off its lanes run the scalar reference per lane, a path
  // raw_capture_lanes never takes.
  SimdGuard guard;
  rf::LoadBoardConfig bc;
  bc.lpf_cutoff_hz = 10e6;
  bc.down_mixer.lo_feedthrough_v = 5e-3;
  bc.path_phase_rad = 0.4;
  const double fs = 80e6;
  const rf::LoadBoard board(bc, fs);
  rf::Digitizer dig;
  simd::set_enabled(true);
  const std::size_t width = rf::LoadBoard::lane_width();
  std::vector<rf::BehavioralLna> lnas;
  for (std::size_t i = 0; i < width; ++i)
    lnas.emplace_back(rf::Cplx(6.0 + static_cast<double>(i), 0.5), 0.4,
                      2.0 + static_cast<double>(i));
  stats::Rng stim_rng(71);
  const std::vector<double> stim = random_vector(401, stim_rng, 0.2);
  std::vector<rf::Cplx> env(stim.size());
  board.upconvert_into(stim, env);
  const std::size_t n_cap = dig.capture_length(stim.size(), fs);
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (std::size_t g = 1; g <= width; ++g) {
      std::vector<stats::Rng> ref_rngs, lane_rngs;
      std::vector<const rf::BehavioralLna*> duts;
      std::vector<stats::Rng*> ptrs;
      std::vector<std::vector<double>> ref(g), lanes(g);
      std::vector<std::span<double>> outs;
      for (std::size_t i = 0; i < g; ++i) {
        ref_rngs.emplace_back(900 + i);
        lane_rngs.emplace_back(900 + i);
      }
      for (std::size_t i = 0; i < g; ++i) {
        duts.push_back(&lnas[i]);
        ptrs.push_back(&lane_rngs[i]);
        std::vector<rf::Cplx> work = env;
        std::vector<double> analog(stim.size());
        board.run_upconverted_into(work, fs, lnas[i], &ref_rngs[i], analog);
        ref[i].resize(n_cap);
        dig.capture_into(analog, fs, &ref_rngs[i], ref[i]);
        lanes[i].resize(n_cap);
        outs.emplace_back(lanes[i]);
      }
      board.capture_lanes(env, fs, duts, ptrs, dig, outs);
      for (std::size_t i = 0; i < g; ++i) {
        EXPECT_TRUE(bits_equal(ref[i], lanes[i]))
            << "g=" << g << " device " << i << " simd=" << simd_on;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ref_rngs[i].normal()),
                  std::bit_cast<std::uint64_t>(lane_rngs[i].normal()));
      }
    }
  }
}

TEST(DeviceLanes, LnaLaneKernelMatchesProcessIntoPerLane) {
  // The DUT stage alone at lane counts 1-5, so both the vector width and
  // the scalar per-lane path run, on inputs that include zeros and
  // signed zeros.
  SimdGuard guard;
  const auto devices = lane_devices(5);
  std::vector<const rf::BehavioralLna*> lnas;
  for (const auto& d : devices)
    lnas.push_back(static_cast<const rf::BehavioralLna*>(d.get()));
  stats::Rng rng(83);
  std::vector<rf::Cplx> in(37);
  for (auto& v : in) v = rf::Cplx(rng.normal(0.0, 0.3), rng.normal(0.0, 0.3));
  in[0] = rf::Cplx(0.0, -0.0);
  in[1] = rf::Cplx(-0.0, 0.0);
  for (const bool simd_on : {true, false}) {
    simd::set_enabled(simd_on);
    for (std::size_t k = 1; k <= lnas.size(); ++k) {
      std::vector<double> lanes(2 * in.size() * k);
      rf::BehavioralLna::process_lanes({lnas.data(), k}, in, lanes);
      for (std::size_t d = 0; d < k; ++d) {
        std::vector<rf::Cplx> ref(in.size());
        lnas[d]->process_into(in, 80e6, nullptr, ref);
        for (std::size_t t = 0; t < in.size(); ++t) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[t].real()),
                    std::bit_cast<std::uint64_t>(lanes[(2 * t) * k + d]));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[t].imag()),
                    std::bit_cast<std::uint64_t>(lanes[(2 * t + 1) * k + d]));
        }
      }
    }
  }
}

// --- Calibration predict ---

TEST(SimdCalibration, PredictMatchesItsBatchRow) {
  // The GEMV has no vector path (at 4 lanes the spec blocks never ran for
  // the LNA's 3 specs); predict() and predict_batch() still share it, so a
  // single device's prediction is its batch row bit for bit.
  stats::Rng rng(61);
  const std::size_t n_dev = 40, m = 23, n_specs = 7;
  la::Matrix sigs(n_dev, m);
  la::Matrix specs(n_dev, n_specs);
  for (std::size_t i = 0; i < n_dev; ++i) {
    for (std::size_t j = 0; j < m; ++j) sigs(i, j) = rng.normal(1.0, 0.3);
    for (std::size_t s = 0; s < n_specs; ++s)
      specs(i, s) = rng.normal(0.0, 2.0);
  }
  sigtest::CalibrationOptions co;
  co.ridge_lambda = 1e-3;
  sigtest::CalibrationModel model(co);
  model.fit(sigs, specs);

  const std::size_t n_test = 9;
  la::Matrix test(n_test, m);
  for (std::size_t i = 0; i < n_test; ++i)
    for (std::size_t j = 0; j < m; ++j) test(i, j) = rng.normal(1.0, 0.3);

  const la::Matrix batch = model.predict_batch(test);
  const auto single = model.predict(test.row(0));
  EXPECT_TRUE(bits_equal(single.data(), batch.row_ptr(0), n_specs));
}

// --- Arena allocator ---

TEST(Arena, ScopeRewindsAndOversizeFallsBackToHeap) {
  core::Arena arena(4096);
  EXPECT_EQ(arena.used(), 0u);
  {
    const core::ArenaScope scope(arena);
    void* p = arena.allocate(1000);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(arena.owns(p));
    EXPECT_GE(arena.used(), 1000u);
    // Oversize request: heap fallback, counted, not arena-owned.
    void* big = arena.allocate(1 << 20);
    ASSERT_NE(big, nullptr);
    EXPECT_FALSE(arena.owns(big));
    EXPECT_EQ(arena.heap_fallbacks(), 1u);
    arena.deallocate(big, 1 << 20);
  }
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_GE(arena.high_water(), 1000u);
}

TEST(Arena, BlocksAreLaneAligned) {
  core::Arena arena(4096);
  for (std::size_t bytes : {1u, 8u, 24u, 100u}) {
    void* p = arena.allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % simd::kAlignment, 0u);
  }
}

TEST(Arena, ArenaVectorUsesArenaStorage) {
  core::Arena arena(1 << 16);
  const core::ArenaScope scope(arena);
  core::ArenaVector<double> v(128, 0.0, core::ArenaAllocator<double>(&arena));
  EXPECT_TRUE(arena.owns(v.data()));
  EXPECT_EQ(arena.heap_fallbacks(), 0u);
}

TEST(Arena, NestedScopesRestoreInStackOrder) {
  core::Arena arena(8192);
  arena.allocate(64);
  const std::size_t outer = arena.used();
  {
    const core::ArenaScope s1(arena);
    arena.allocate(256);
    const std::size_t mid = arena.used();
    {
      const core::ArenaScope s2(arena);
      arena.allocate(512);
      EXPECT_GT(arena.used(), mid);
    }
    EXPECT_EQ(arena.used(), mid);
  }
  EXPECT_EQ(arena.used(), outer);
}

// --- End-to-end: the batched production lot allocates zero per-device heap
// scratch in steady state (the mem.heap_fallbacks counter must not move). ---

TEST(ArenaSteadyState, BatchLotRunsWithoutHeapFallbacks) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::TestCell runtime(
      cfg,
      dsp::PwlWaveform::uniform(cfg.capture_s,
                                {0.0, 0.3, -0.2, 0.4, -0.1, 0.2}),
      {"gain_db", "nf_db", "iip3_dbm"});
  auto devices = rf::make_lna_population(24, 0.2, 5);
  stats::Rng cal_rng(3);
  runtime.calibrate(devices, cal_rng, 2);

  const stats::Rng lot_rng(17);
  // Warm-up lot: first-touch arena growth and render/rotation caches.
  (void)runtime.test_lot(devices, lot_rng);
  const std::uint64_t fallbacks_before =
      core::telemetry::counter("mem.heap_fallbacks").value();
  const auto result = runtime.test_lot(devices, lot_rng);
  const std::uint64_t fallbacks_after =
      core::telemetry::counter("mem.heap_fallbacks").value();
  EXPECT_EQ(result.devices(), devices.size());
  EXPECT_EQ(fallbacks_after, fallbacks_before)
      << "steady-state lot fell back to the heap for capture scratch";
}

// --- Ziggurat normal sampler: distribution moments and determinism ---

TEST(Ziggurat, MomentsMatchStandardNormal) {
  stats::Rng rng(12345);
  const std::size_t n = 200000;
  double sum = 0.0, sum2 = 0.0, sum3 = 0.0, sum4 = 0.0;
  std::size_t tail = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.normal(0.0, 1.0);
    sum += x;
    sum2 += x * x;
    sum3 += x * x * x;
    sum4 += x * x * x * x;
    if (std::abs(x) > 3.0) ++tail;
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(sum / nd, 0.0, 0.01);
  EXPECT_NEAR(sum2 / nd, 1.0, 0.02);
  EXPECT_NEAR(sum3 / nd, 0.0, 0.05);
  EXPECT_NEAR(sum4 / nd, 3.0, 0.1);  // normal kurtosis
  // P(|X| > 3) = 2.7e-3; with n draws the count is ~540 +- 23.
  EXPECT_GT(tail, 400u);
  EXPECT_LT(tail, 700u);
}

TEST(Ziggurat, ScalingAndDeterminism) {
  stats::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(a.normal(2.0, 0.5), b.normal(2.0, 0.5));
  // mu + sigma * z scaling: replay the stream against a unit draw.
  stats::Rng c(42), d(42);
  for (int i = 0; i < 1000; ++i) {
    const double z = c.normal(0.0, 1.0);
    EXPECT_EQ(d.normal(2.0, 0.5), 2.0 + 0.5 * z);
  }
}

}  // namespace
