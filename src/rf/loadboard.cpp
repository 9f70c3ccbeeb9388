#include "rf/loadboard.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "dsp/resample.hpp"

namespace stf::rf {

namespace simd = stf::core::simd;

namespace {

// The mixer's AM/AM constants: linear gain and 1/A^2 of its IP3 amplitude.
struct MixerCoeffs {
  double g;
  double inv_a2;
};

MixerCoeffs mixer_coeffs(const MixerModel& m) {
  const double a_ip3 = iip3_dbm_to_source_amplitude(m.iip3_dbm);
  STF_REQUIRE(a_ip3 > 0.0, "MixerModel::apply: IP3 amplitude must be > 0");
  return {std::pow(10.0, m.conversion_gain_db / 20.0), 1.0 / (a_ip3 * a_ip3)};
}

}  // namespace

void MixerModel::apply(std::span<Cplx> x) const {
  const auto [g, inv_a2] = mixer_coeffs(*this);
  // Saturating AM/AM with the same third-order expansion as the classic
  // cubic (see BehavioralLna). The gain is real, so both quadratures scale
  // by g / sqrt(1 + 2|v|^2/A^2). This loop is the reference the device-lane
  // path (LoadBoard::capture_lanes) reproduces per lane.
  for (auto& v : x) {
    const double mag2 = std::norm(v);
    v = g * v / std::sqrt(1.0 + 2.0 * mag2 * inv_a2);
  }
}

LoadBoard::LoadBoard(const LoadBoardConfig& config, double planned_fs_hz)
    : config_(config), planned_fs_hz_(planned_fs_hz) {
  STF_REQUIRE(config_.lpf_cutoff_hz > 0.0,
              "LoadBoard: lpf_cutoff_hz must be > 0");
  STF_REQUIRE(config_.lpf_order != 0, "LoadBoard: lpf_order must be > 0");
  // Only precompute for a usable rate; an invalid planned rate is not an
  // error here -- run() still rejects it exactly as it always has, so
  // misconfiguration surfaces at the same place as before.
  if (planned_fs_hz_ > 2.0 * config_.lpf_cutoff_hz)
    planned_lpf_ = stf::dsp::butterworth_lowpass(
        config_.lpf_order, config_.lpf_cutoff_hz, planned_fs_hz_);
}

namespace {

// Per-thread cache of the beat-rotation phasors e^{j(dphi k + phase)}. The
// production flow demodulates every capture with the same (n, dphi, phase)
// triple, so the cos/sin evaluations -- by far the most expensive part of
// the downconversion -- are hoisted out of the per-device path entirely.
struct RotationTable {
  std::size_t n = 0;
  double dphi = 0.0;
  double phase = 0.0;
  bool valid = false;
  simd::AlignedVector<Cplx> rot;
};

const simd::AlignedVector<Cplx>& rotation_table(std::size_t n, double dphi,
                                                double phase) {
  thread_local RotationTable t;
  if (!t.valid || t.n != n || t.dphi != dphi || t.phase != phase) {
    t.rot.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double ang = dphi * static_cast<double>(k) + phase;
      t.rot[k] = Cplx(std::cos(ang), std::sin(ang));
    }
    t.n = n;
    t.dphi = dphi;
    t.phase = phase;
    t.valid = true;
  }
  return t.rot;
}

}  // namespace

std::vector<double> LoadBoard::run(const std::vector<double>& stimulus,
                                   double fs_sim, const RfDut& dut,
                                   stf::stats::Rng* rng) const {
  std::vector<double> out(stimulus.size());
  run_into(stimulus, fs_sim, dut, rng, out);
  return out;
}

void LoadBoard::run_into(std::span<const double> stimulus, double fs_sim,
                         const RfDut& dut, stf::stats::Rng* rng,
                         std::span<double> out) const {
  STF_REQUIRE(out.size() == stimulus.size(),
              "LoadBoard::run_into: out length must match the stimulus");
  // One envelope buffer from the per-thread arena carries the signal
  // through every board stage in place; the scope rewinds it on exit.
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<Cplx> env(stimulus.size(), Cplx{},
                                   stf::core::ArenaAllocator<Cplx>(&arena));
  const std::span<Cplx> env_span(env.data(), env.size());
  upconvert_into(stimulus, env_span);
  run_upconverted_into(env_span, fs_sim, dut, rng, out);
}

void LoadBoard::upconvert_into(std::span<const double> stimulus,
                               std::span<Cplx> env) const {
  STF_REQUIRE(!stimulus.empty(), "LoadBoard::run: empty stimulus");
  STF_REQUIRE(env.size() == stimulus.size(),
              "LoadBoard::upconvert_into: env length must match the "
              "stimulus");
  // Mixer 1: x_t(t) * sin(w1 t) -- in envelope terms the stimulus *is* the
  // envelope at the carrier; the mixer contributes gain/compression.
  STF_TRACE_SPAN("board.upconvert");
  for (std::size_t i = 0; i < env.size(); ++i)
    env[i] = Cplx(stimulus[i], 0.0);
  config_.up_mixer.apply(env);
}

void LoadBoard::run_upconverted_into(std::span<Cplx> env, double fs_sim,
                                     const RfDut& dut, stf::stats::Rng* rng,
                                     std::span<double> out) const {
  STF_REQUIRE(!env.empty(), "LoadBoard::run_upconverted_into: empty envelope");
  STF_REQUIRE(fs_sim > 2.0 * config_.lpf_cutoff_hz,
              "LoadBoard::run: fs_sim must exceed twice the LPF cutoff");
  STF_REQUIRE(out.size() == env.size(),
              "LoadBoard::run_upconverted_into: out length must match the "
              "envelope");
  const std::size_t n = env.size();

  // The device under test (in place: the models are memoryless).
  {
    STF_TRACE_SPAN("board.dut");
    dut.process_into(env, fs_sim, rng, env);
  }

  // Mixer 2 at f2 = f1 - lo_offset with path phase phi: the real product
  // after discarding the 2*fc image is Re{ y~ e^{j(2 pi (f1-f2) t + phi)} }
  // (Eq. 5; lo_offset = 0 degenerates to the Eq. 4 cos(phi) scaling). The
  // DC offset from LO self-mixing appears at the demodulator output.
  {
    STF_TRACE_SPAN("board.downconvert");
    config_.down_mixer.apply(env);
    const double dphi =
        2.0 * std::numbers::pi * config_.lo_offset_hz / fs_sim;
    const auto& rot = rotation_table(n, dphi, config_.path_phase_rad);
    const double feed = config_.down_mixer.lo_feedthrough_v;
    // Re{y * rot} + feedthrough.
    for (std::size_t i = 0; i < n; ++i)
      out[i] =
          (env[i].real() * rot[i].real() - env[i].imag() * rot[i].imag()) +
          feed;
  }

  // Post-mixer anti-alias lowpass, in place.
  STF_TRACE_SPAN("board.lpf");
  std::optional<stf::dsp::BiquadCascade> unplanned;
  lpf_at(fs_sim, unplanned).filter_inplace(out);
}

const stf::dsp::BiquadCascade& LoadBoard::lpf_at(
    double fs_sim, std::optional<stf::dsp::BiquadCascade>& unplanned) const {
  // The planned design when the rate matches, an identical on-the-fly
  // design otherwise.
  if (planned_lpf_ && fs_sim == planned_fs_hz_) return *planned_lpf_;
  unplanned = stf::dsp::butterworth_lowpass(config_.lpf_order,
                                            config_.lpf_cutoff_hz, fs_sim);
  return *unplanned;
}

std::size_t LoadBoard::lane_width() {
  return simd::enabled() ? simd::kLanes : 1;
}

void LoadBoard::capture_lanes(std::span<const Cplx> env, double fs_sim,
                              std::span<const BehavioralLna* const> duts,
                              std::span<stf::stats::Rng* const> rngs,
                              const Digitizer& digitizer,
                              std::span<const std::span<double>> out) const {
  constexpr std::size_t kK = simd::kLanes;
  const std::size_t g = duts.size();
  STF_REQUIRE(g >= 1 && g <= kK,
              "LoadBoard::capture_lanes: 1 to simd::kLanes devices per group");
  STF_REQUIRE(rngs.size() == g && out.size() == g,
              "LoadBoard::capture_lanes: one rng slot and one output per "
              "device");
  STF_REQUIRE(!env.empty(), "LoadBoard::capture_lanes: empty envelope");
  STF_REQUIRE(fs_sim > 2.0 * config_.lpf_cutoff_hz,
              "LoadBoard::run: fs_sim must exceed twice the LPF cutoff");
  const std::size_t n = env.size();
  const std::size_t n_cap = digitizer.capture_length(n, fs_sim);
  for (const std::span<double> o : out)
    STF_REQUIRE(o.size() == n_cap,
                "LoadBoard::capture_lanes: every output must be "
                "capture_length() long");
  STF_TRACE_SPAN("board.lanes");
  STF_COUNT("board.lane_groups");

  // Device d of the group runs in lane d; spare lanes repeat device 0,
  // draw no noise, and are dropped at the end. Every buffer is
  // device-interleaved: lane d of sample t sits at [t * kK + d].
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  const BehavioralLna* lane[kK];
  for (std::size_t d = 0; d < kK; ++d) lane[d] = duts[d < g ? d : 0];
  stf::core::ArenaVector<double> quad(
      2 * n * kK, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> analog(
      n * kK, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> capture(
      n_cap * kK, 0.0, stf::core::ArenaAllocator<double>(&arena));

  // The DUT: the shared envelope through each device's AM/AM, then each
  // device's noise from its own stream, added to its lane exactly as
  // process_into adds it (re before im, sample by sample).
  {
    STF_TRACE_SPAN("board.lanes.dut");
    BehavioralLna::process_lanes({lane, kK}, env, {quad.data(), quad.size()});
    for (std::size_t d = 0; d < g; ++d)
      if (rngs[d] != nullptr && duts[d]->noisy())
        rngs[d]->add_normal({quad.data() + d, quad.size() - d},
                            duts[d]->noise_sigma(fs_sim), kK);
  }

  // Mixer 2 and the beat rotation, per lane: MixerModel::apply's AM/AM,
  // then Re{y * rot} + feedthrough, with run_upconverted_into's operations
  // in its order. The rotation phasor is the same for every lane.
  {
    STF_TRACE_SPAN("board.lanes.downconvert");
    const auto [g_mix, inv_a2] = mixer_coeffs(config_.down_mixer);
    const double dphi =
        2.0 * std::numbers::pi * config_.lo_offset_hz / fs_sim;
    const auto& rot = rotation_table(n, dphi, config_.path_phase_rad);
    const double feed = config_.down_mixer.lo_feedthrough_v;
    const double* q = quad.data();
    double* a = analog.data();
    std::size_t t = 0;
    if constexpr (kK >= 2) {
      if (simd::enabled()) {
        const simd::VecD gv = simd::broadcast(g_mix);
        const simd::VecD one = simd::broadcast(1.0);
        const simd::VecD two = simd::broadcast(2.0);
        const simd::VecD ia2 = simd::broadcast(inv_a2);
        const simd::VecD fv = simd::broadcast(feed);
        for (; t < n; ++t, q += 2 * kK, a += kK) {
          const simd::VecD re = simd::load(q);
          const simd::VecD im = simd::load(q + kK);
          const simd::VecD denom =
              simd::sqrt(one + two * (re * re + im * im) * ia2);
          const simd::VecD yr = gv * re / denom;
          const simd::VecD yi = gv * im / denom;
          simd::store(a, (yr * simd::broadcast(rot[t].real()) -
                          yi * simd::broadcast(rot[t].imag())) +
                             fv);
        }
      }
    }
    for (; t < n; ++t, q += 2 * kK, a += kK) {
      for (std::size_t d = 0; d < kK; ++d) {
        const double denom = std::sqrt(
            1.0 + 2.0 * (q[d] * q[d] + q[kK + d] * q[kK + d]) * inv_a2);
        const double yr = g_mix * q[d] / denom;
        const double yi = g_mix * q[kK + d] / denom;
        a[d] = (yr * rot[t].real() - yi * rot[t].imag()) + feed;
      }
    }
  }

  // The LPF with one device per channel, then the digitizer's resampling.
  {
    STF_TRACE_SPAN("board.lanes.lpf");
    std::optional<stf::dsp::BiquadCascade> unplanned;
    lpf_at(fs_sim, unplanned)
        .filter_interleaved({analog.data(), analog.size()}, kK);
  }
  STF_TRACE_SPAN("board.lanes.digitize");
  stf::dsp::resample_interleaved_into({analog.data(), analog.size()}, kK,
                                      fs_sim, digitizer.fs_hz,
                                      {capture.data(), capture.size()});
  // Out of the lanes: the rest of the digitizer runs per device, on that
  // device's stream after its DUT noise, as capture_into runs it.
  for (std::size_t d = 0; d < g; ++d) {
    for (std::size_t i = 0; i < n_cap; ++i) out[d][i] = capture[i * kK + d];
    digitizer.noise_and_quantize(out[d], rngs[d]);
  }
}

std::size_t Digitizer::capture_length(std::size_t n_in, double fs_in) const {
  STF_REQUIRE(fs_hz > 0.0, "Digitizer: fs_hz must be > 0");
  return stf::dsp::resample_length(n_in, fs_in, fs_hz);
}

std::vector<double> Digitizer::capture(const std::vector<double>& analog,
                                       double fs_in,
                                       stf::stats::Rng* rng) const {
  std::vector<double> samples(capture_length(analog.size(), fs_in));
  capture_into(analog, fs_in, rng, samples);
  return samples;
}

void Digitizer::capture_into(std::span<const double> analog, double fs_in,
                             stf::stats::Rng* rng,
                             std::span<double> out) const {
  STF_REQUIRE(fs_hz > 0.0, "Digitizer: fs_hz must be > 0");
  stf::dsp::resample_linear_into(analog, fs_in, fs_hz, out);
  noise_and_quantize(out, rng);
}

// Total over its inputs: any span, a null rng and any noise level are
// valid (add_normal only runs for noise_rms_v > 0).
// stf-analyze: allow(api-contract)
void Digitizer::noise_and_quantize(std::span<double> out,
                                   stf::stats::Rng* rng) const {
  if (rng != nullptr && noise_rms_v > 0.0) rng->add_normal(out, noise_rms_v);
  if (bits > 0) {
    const double levels = std::pow(2.0, bits - 1);
    const double lsb = full_scale_v / levels;
    for (auto& v : out) {
      double q = std::round(v / lsb) * lsb;
      q = std::min(std::max(q, -full_scale_v), full_scale_v);
      v = q;
    }
  }
}

}  // namespace stf::rf
