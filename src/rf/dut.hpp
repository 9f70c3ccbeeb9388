// Behavioral device-under-test models for the envelope signal path.
//
// The signature pipeline needs the DUT as an envelope-domain block; the
// circuit engine characterizes each device instance (complex gain at the
// carrier, input-referred IP3, noise figure) and extract_lna_dut() folds
// those numbers into a saturating memoryless AM/AM envelope model:
//
//   y~ = H * x~ / sqrt(1 + 2 |x~|^2 / A_ip3^2) + n~
//
// whose third-order expansion equals the classic cubic
// H * x~ * (1 - |x~|^2/A^2) -- i.e. it reproduces exactly the measured
// IIP3 -- and whose output amplitude is *strictly increasing* in the input
// amplitude for all drive levels (a pure cubic peaks at A/sqrt(3) and a
// first-order rational at A, then both decrease, which no amplifier
// does; the property suite enforces monotonicity). n~ is the device's
// excess noise (F - 1 over the source noise floor).
#pragma once

#include <complex>
#include <memory>
#include <span>

#include "circuit/lna900.hpp"
#include "rf/envelope.hpp"
#include "stats/rng.hpp"

namespace stf::rf {

/// Envelope-domain device under test.
class RfDut {
 public:
  virtual ~RfDut() = default;

  /// Process an input envelope. When rng is non-null the DUT adds its own
  /// noise; pass nullptr for noiseless (sensitivity/optimization) runs.
  virtual EnvelopeSignal process(const EnvelopeSignal& in,
                                 stf::stats::Rng* rng) const = 0;

  /// Allocation-free span variant: process `in` (envelope samples at rate
  /// fs) into `out` (same length; in and out may alias). The default
  /// bridges through process() with a temporary EnvelopeSignal, so
  /// third-party DUT models keep working unchanged; the built-in models
  /// override it with kernels that allocate nothing and produce values
  /// bit-identical to their process() path on finite inputs.
  virtual void process_into(std::span<const Cplx> in, double fs,
                            stf::stats::Rng* rng, std::span<Cplx> out) const;
};

/// Memoryless polynomial LNA model with additive excess noise.
class BehavioralLna : public RfDut {
 public:
  /// gain: complex voltage transfer (source EMF -> output) at the carrier.
  /// iip3_v: input-referred IP3 as a source-EMF amplitude (volts); +inf
  ///         disables compression.
  /// nf_db:  noise figure; excess output noise is (F-1) * kT * 4 Rs * |H|^2
  ///         referred through the gain.
  /// rs_ohms: reference source resistance for the noise floor.
  BehavioralLna(Cplx gain, double iip3_v, double nf_db, double rs_ohms = 50.0);

  EnvelopeSignal process(const EnvelopeSignal& in,
                         stf::stats::Rng* rng) const override;
  void process_into(std::span<const Cplx> in, double fs, stf::stats::Rng* rng,
                    std::span<Cplx> out) const override;

  /// Whether process_into adds noise when given an rng (nf_db > 0).
  bool noisy() const { return nf_db_ > 0.0; }

  /// Standard deviation of the excess noise process_into adds to each
  /// quadrature of an envelope at rate fs (meaningful when noisy()).
  double noise_sigma(double fs) const;

  /// Device lanes: the noiseless AM/AM of K = duts.size() devices driven by
  /// one shared input envelope, one device per lane. Device d's quadrature
  /// q (0 = I, 1 = Q) of sample t lands in out[(2 t + q) * K + d], so
  /// out.size() must be 2 * in.size() * K. Each device's outputs are
  /// bit-identical to its process_into with a null rng; the caller adds
  /// each device's noise (noise_sigma) from its own stream. K equal to the
  /// vector width runs in vector lanes, any other K runs the scalar
  /// reference per lane.
  static void process_lanes(std::span<const BehavioralLna* const> duts,
                            std::span<const Cplx> in, std::span<double> out);

  Cplx gain() const { return gain_; }
  double iip3_v() const { return iip3_v_; }
  double nf_db() const { return nf_db_; }

 private:
  Cplx gain_;
  double iip3_v_;
  double nf_db_;
  double rs_ohms_;
};

/// Ideal gain block (used by unit tests and the Eq. 4/5 phase study, where
/// the paper's derivation assumes "a simple gain device with gain A").
class IdealGainDut : public RfDut {
 public:
  explicit IdealGainDut(Cplx gain) : gain_(gain) {}
  EnvelopeSignal process(const EnvelopeSignal& in,
                         stf::stats::Rng*) const override;
  void process_into(std::span<const Cplx> in, double fs, stf::stats::Rng*,
                    std::span<Cplx> out) const override;

 private:
  Cplx gain_;
};

/// Characterize one LNA process instance with the circuit engine and build
/// its behavioral envelope model. Also returns the direct-simulation specs
/// (the paper's "direct simulation" axis).
struct LnaCharacterization {
  stf::circuit::LnaSpecs specs;
  std::shared_ptr<BehavioralLna> dut;
};
LnaCharacterization extract_lna_dut(const std::vector<double>& process);

/// Convert an available-power IP3 in dBm to the source-EMF amplitude used
/// by BehavioralLna (A = sqrt(8 Rs P)).
double iip3_dbm_to_source_amplitude(double iip3_dbm, double rs_ohms = 50.0);

}  // namespace stf::rf
