// Load-board model: the modulation/demodulation signal path of Figs. 2-3.
//
// The board receives the baseband test stimulus from the ATE's AWG,
// upconverts it onto the RF carrier (mixer 1, LO at f1), drives the DUT,
// downconverts the response (mixer 2, LO at f2 = f1 - lo_offset, with a
// path phase error phi), and low-pass filters the product back to baseband.
// With f1 == f2 the output is scaled by cos(phi) -- the Eq. 4 cancellation
// hazard; the production configuration offsets the LOs so phi only rotates
// the beat (Eq. 5) and the FFT magnitude signature is phase-invariant.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "dsp/iir.hpp"
#include "rf/dut.hpp"
#include "rf/envelope.hpp"
#include "stats/rng.hpp"

namespace stf::rf {

/// Behavioral mixer: conversion gain, compression (from an IP3 rating) and
/// LO self-mixing DC offset. RF/LO harmonic cross-products land at multiples
/// of the carrier, far outside the envelope band, and are absorbed by the
/// LPF; their only in-band effects are the ones modeled here.
struct MixerModel {
  double conversion_gain_db = -6.0;  ///< Typical diode-ring loss.
  double iip3_dbm = 20.0;            ///< Input IP3 (50-ohm convention).
  double lo_feedthrough_v = 0.0;     ///< DC offset from LO self-mixing.

  /// Apply gain + cubic compression to an envelope in place.
  void apply(std::span<Cplx> x) const;

  /// Equal mixers transform every envelope identically (a cache key).
  bool operator==(const MixerModel&) const = default;
};

/// Signature-path configuration (paper Section 4.1 defaults).
struct LoadBoardConfig {
  double carrier_hz = 900e6;
  double lo_offset_hz = 100e3;   ///< f1 - f2; 0 reproduces the Eq. 4 hazard.
  double path_phase_rad = 0.0;   ///< phi: LO path-length mismatch.
  MixerModel up_mixer;
  MixerModel down_mixer;
  std::size_t lpf_order = 5;
  double lpf_cutoff_hz = 10e6;   ///< Post-mixer anti-alias lowpass.
};

struct Digitizer;

/// The analog signature path: stimulus -> mixer1 -> DUT -> mixer2 -> LPF.
///
/// Immutable after construction; run() is const and thread-safe, so one
/// board instance serves concurrent acquisitions (the parallel GA objective
/// evaluates many candidate stimuli against a shared acquirer). The path
/// splits after mixer 1, the last stage that depends on the stimulus
/// alone: upconvert_into() produces the drive envelope and
/// run_upconverted_into() takes it through the DUT, mixer 2 and the LPF,
/// so a caller that replays one stimulus can upconvert it once and start
/// every capture from a copy. run_into() is the two in sequence.
///
/// Device lanes: every device of a lot, and every perturbed device of a GA
/// candidate, shares the stimulus and every board stage but its DUT and
/// its noise. capture_lanes() takes a group of up to lane_width()
/// BehavioralLna devices through the DUT, mixer 2, the beat rotation, the
/// LPF and the digitizer's resampling together, one device per vector
/// lane, and hands each device its capture bit-identical to
/// run_upconverted_into() plus Digitizer::capture_into(), stream position
/// included. The per-device path stays the scalar reference.
class LoadBoard {
 public:
  /// planned_fs_hz > 0 designs the anti-alias lowpass once, up front, for
  /// that simulation rate; run() calls at the planned rate reuse it instead
  /// of re-running the Butterworth design per acquisition. Other rates fall
  /// back to an on-the-fly design with identical output.
  explicit LoadBoard(const LoadBoardConfig& config, double planned_fs_hz = 0.0);

  /// Run a rendered baseband stimulus (at simulation rate fs_sim) through
  /// the board and DUT. Returns the analog signature x_s(t) at fs_sim.
  /// rng enables DUT noise; pass nullptr for deterministic runs.
  std::vector<double> run(const std::vector<double>& stimulus, double fs_sim,
                          const RfDut& dut, stf::stats::Rng* rng) const;

  /// Allocation-free variant of run(): writes the analog signature into
  /// `out` (same length as `stimulus`, which it must not alias). Scratch
  /// envelopes come from the per-thread capture arena and the beat-rotation
  /// table is cached per thread, so steady-state calls at the planned rate
  /// touch the heap zero times. run() forwards here, so both entry points
  /// produce bit-identical samples.
  void run_into(std::span<const double> stimulus, double fs_sim,
                const RfDut& dut, stf::stats::Rng* rng,
                std::span<double> out) const;

  /// Mixer 1: the rendered stimulus as the envelope at the carrier, through
  /// the up-mixer's gain and compression, into `env` (same length as
  /// `stimulus`). Depends on nothing but the stimulus and config().up_mixer.
  void upconvert_into(std::span<const double> stimulus,
                      std::span<Cplx> env) const;

  /// The board after mixer 1: the DUT, mixer 2 and the LPF. Consumes the
  /// upconverted envelope `env` (overwritten in place) and writes the
  /// analog signature at fs_sim into `out` (same length, no aliasing).
  /// Bit-identical to the tail of run_into().
  void run_upconverted_into(std::span<Cplx> env, double fs_sim,
                            const RfDut& dut, stf::stats::Rng* rng,
                            std::span<double> out) const;

  /// Devices capture_lanes() takes per group: the vector width of the
  /// board kernels, or 1 when this build has no vector backend or the
  /// runtime STF_SIMD switch is off.
  static std::size_t lane_width();

  /// Device lanes: run_upconverted_into() and then `digitizer`'s
  /// capture_into() for each of 1 to simd::kLanes devices that share the
  /// upconverted envelope `env` (read only). Device i draws its DUT noise
  /// and then its digitizer noise from rngs[i] (null: noiseless); the
  /// streams must be distinct. out[i] receives device i's capture
  /// (digitizer.capture_length(env.size(), fs_sim) samples), and it and
  /// rngs[i] end bit-identical to the per-device path. Scratch comes from
  /// the per-thread capture arena.
  void capture_lanes(std::span<const Cplx> env, double fs_sim,
                     std::span<const BehavioralLna* const> duts,
                     std::span<stf::stats::Rng* const> rngs,
                     const Digitizer& digitizer,
                     std::span<const std::span<double>> out) const;

  const LoadBoardConfig& config() const { return config_; }

 private:
  /// The anti-alias lowpass at fs_sim: the planned design when the rate
  /// matches, else a design built into `unplanned`.
  const stf::dsp::BiquadCascade& lpf_at(
      double fs_sim,
      std::optional<stf::dsp::BiquadCascade>& unplanned) const;

  LoadBoardConfig config_;
  double planned_fs_hz_ = 0.0;
  std::optional<stf::dsp::BiquadCascade> planned_lpf_;
};

/// Baseband digitizer: linear resampling to the capture rate, additive
/// measurement noise, optional quantization.
struct Digitizer {
  double fs_hz = 20e6;        ///< Capture sample rate.
  double noise_rms_v = 1e-3;  ///< Additive gaussian noise (paper: 1 mV).
  int bits = 0;               ///< 0 disables quantization.
  double full_scale_v = 1.0;  ///< Quantizer range is [-fs, +fs].

  /// Sample the analog waveform. rng may be null (no noise added).
  std::vector<double> capture(const std::vector<double>& analog, double fs_in,
                              stf::stats::Rng* rng) const;

  /// Number of samples capture() produces for an n_in-sample input at
  /// fs_in.
  std::size_t capture_length(std::size_t n_in, double fs_in) const;

  /// Allocation-free capture into caller storage (out.size() must equal
  /// capture_length(analog.size(), fs_in)). Bit-identical to capture().
  void capture_into(std::span<const double> analog, double fs_in,
                    stf::stats::Rng* rng, std::span<double> out) const;

  /// The digitizer after resampling, in place: the additive noise (when
  /// rng is non-null), then the quantizer. capture_into() is resampling
  /// followed by this.
  void noise_and_quantize(std::span<double> out, stf::stats::Rng* rng) const;
};

}  // namespace stf::rf
