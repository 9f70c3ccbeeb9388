// Measurement-chain fault injection: parameterized tester non-idealities.
//
// A production signature tester misbehaves in ways a clean simulation never
// shows -- the local oscillators drift, the digitizer front-end clips or
// drops samples, an intermittent socket contact fires impulses into the
// capture, and the board gain wanders over a shift. The FaultInjector
// models each of these as a deterministic transform of the *digitized
// capture* (the vector the signature FFT consumes), so every downstream
// layer -- acquisition, the guarded runtime, the escape-rate benches --
// can be exercised against a degraded measurement chain without touching
// the physics models.
//
// Determinism contract: apply() draws randomness only from the caller's
// stats::Rng and computes slow-drift terms as a pure function of the
// `sequence` index (the device's position in the lot), so a fault scenario
// replays bit-identically from a seed at any STF_THREADS setting.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.hpp"

namespace stf::rf {

/// One class of tester fault. Parameters p1/p2 are interpreted per kind
/// (see the FaultSpec factory functions).
enum class FaultKind {
  kLoDrift,         ///< LO frequency/phase error rotating the beat.
  kClip,            ///< Digitizer front-end rails at +/-p1 volts.
  kStuckSample,     ///< ADC holds the previous code with probability p1.
  kDroppedSample,   ///< Sample lost (reads back 0) with probability p1.
  kContactNoise,    ///< Impulse of +/-p2 volts with probability p1.
  kBaselineWander,  ///< Additive slow sinusoid: p1 volts at p2 hertz.
  kGainDrift,       ///< Gain scales by (1 + p1 * sequence): slow board drift.
};

/// A parameterized fault instance. Construct via the factories, which
/// document what each parameter means.
struct FaultSpec {
  FaultKind kind = FaultKind::kClip;
  double p1 = 0.0;
  double p2 = 0.0;

  /// LO drift: per-capture frequency error drawn U(-freq_err_hz,
  /// +freq_err_hz) plus a phase error U(-phase_err_rad, +phase_err_rad).
  /// Modeled as a beat rotation cos(2 pi df t + dphi) applied to the
  /// capture -- it smears signature energy across neighboring bins exactly
  /// the way a drifted downconversion LO does.
  static FaultSpec lo_drift(double freq_err_hz, double phase_err_rad = 0.0);
  /// Clipping: every sample clamped to [-rail_v, +rail_v].
  static FaultSpec clip(double rail_v);
  /// Stuck samples: each sample independently repeats its predecessor with
  /// probability `probability`.
  static FaultSpec stuck_sample(double probability);
  /// Dropped samples: each sample independently zeroed with probability
  /// `probability` (DMA underrun semantics).
  static FaultSpec dropped_sample(double probability);
  /// Contact noise: with probability `probability` per sample, add an
  /// impulse of amplitude +/-amplitude_v (sign random).
  static FaultSpec contact_noise(double probability, double amplitude_v);
  /// Baseline wander: add amplitude_v * sin(2 pi wander_hz t + phase) with
  /// a random per-capture phase.
  static FaultSpec baseline_wander(double amplitude_v, double wander_hz);
  /// Gain drift: multiply the capture by (1 + drift_per_device * sequence).
  static FaultSpec gain_drift(double drift_per_device);
};

/// Composable fault model for the capture path. Faults apply in the order
/// they were added, each transforming the capture in place.
///
/// Every fault is checked on entry (constructor, add, parse) and rejected
/// with std::invalid_argument -- in every build, SIGTEST_CHECKED or not --
/// unless both parameters are finite, a stuck/drop/contact probability lies
/// in [0, 1], and the LO frequency and phase ranges are >= 0 with a finite
/// width 2p.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(std::vector<FaultSpec> faults);

  void add(const FaultSpec& fault);
  bool empty() const { return faults_.empty(); }
  const std::vector<FaultSpec>& faults() const { return faults_; }

  /// Corrupt one digitized capture in place. fs_hz is the capture sample
  /// rate (needed by the time-dependent faults); sequence is the device's
  /// position in the lot (drives the slow-drift terms); rng supplies every
  /// random draw, so a (seed, sequence) pair replays exactly.
  void apply(std::vector<double>& capture, double fs_hz,
             std::uint64_t sequence, stf::stats::Rng& rng) const;

  /// Span variant for captures living in caller-managed (arena) storage;
  /// the vector overload forwards here.
  void apply(std::span<double> capture, double fs_hz, std::uint64_t sequence,
             stf::stats::Rng& rng) const;

  /// Parse a CLI scenario: comma-separated `name:p1[:p2]` terms, e.g.
  /// "clip:0.1,lo:2e3:0.8,contact:0.02:0.5". Names: lo, contact and wander
  /// take one or two numbers (a second one left out is 0); clip, stuck,
  /// drop and gain take one. Throws std::invalid_argument on a malformed
  /// spec, an unknown name, more numbers than the fault takes, or a
  /// parameter outside its domain.
  static FaultInjector parse(const std::string& spec);

  /// Human-readable scenario summary, e.g. "clip(rail=0.1) + gain(2e-3)".
  std::string describe() const;

 private:
  std::vector<FaultSpec> faults_;
};

}  // namespace stf::rf
