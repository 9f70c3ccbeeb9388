#include "rf/dut.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/ac.hpp"
#include "circuit/constants.hpp"
#include "circuit/dc.hpp"
#include "core/contracts.hpp"
#include "core/simd.hpp"

namespace stf::rf {

namespace simd = stf::core::simd;

void RfDut::process_into(std::span<const Cplx> in, double fs,
                         stf::stats::Rng* rng, std::span<Cplx> out) const {
  STF_REQUIRE(out.size() == in.size(),
              "RfDut::process_into: in/out length mismatch");
  // Bridge for models that only implement process(). The temporary envelope
  // carries fc = 0; a model whose response depends on the carrier frequency
  // must override process_into directly.
  EnvelopeSignal tmp;
  tmp.fs = fs;
  tmp.x.assign(in.begin(), in.end());
  const EnvelopeSignal res = process(tmp, rng);
  STF_ASSERT(res.x.size() == out.size(),
             "RfDut::process_into: process() changed the sample count");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = res.x[i];
}

BehavioralLna::BehavioralLna(Cplx gain, double iip3_v, double nf_db,
                             double rs_ohms)
    : gain_(gain), iip3_v_(iip3_v), nf_db_(nf_db), rs_ohms_(rs_ohms) {
  STF_REQUIRE(iip3_v > 0.0, "BehavioralLna: iip3_v must be > 0");
  STF_REQUIRE(rs_ohms > 0.0, "BehavioralLna: rs_ohms must be > 0");
}

EnvelopeSignal BehavioralLna::process(const EnvelopeSignal& in,
                                      stf::stats::Rng* rng) const {
  EnvelopeSignal out = in;
  process_into(out.x, in.fs, rng, out.x);
  return out;
}

void BehavioralLna::process_into(std::span<const Cplx> in, double fs,
                                 stf::stats::Rng* rng,
                                 std::span<Cplx> out) const {
  STF_REQUIRE(fs > 0.0, "BehavioralLna::process_into: fs must be > 0");
  STF_REQUIRE(out.size() == in.size(),
              "BehavioralLna::process_into: in/out length mismatch");
  const double inv_a2 =
      std::isinf(iip3_v_) ? 0.0 : 1.0 / (iip3_v_ * iip3_v_);
  const double gr = gain_.real();
  const double gi = gain_.imag();
  // Saturating AM/AM: v <- gain * v / sqrt(1 + 2|v|^2 / A^2). Each sample
  // is independent, so pairs of (re, im) lanes run vectorized with exactly
  // the scalar operation order; the remainder (and the SIMD-off path) runs
  // the reference loop below. Both spell the complex product out in real
  // arithmetic -- the same products and sums std::complex multiplication
  // performs on finite values.
  std::size_t i = 0;
  if constexpr (simd::kLanes >= 2) {
    if (simd::enabled()) {
      constexpr std::size_t kC = simd::kLanes / 2;  // complexes per vector
      const simd::VecD g = simd::set_pair(gr, gi);
      const simd::VecD one = simd::broadcast(1.0);
      const simd::VecD two = simd::broadcast(2.0);
      const simd::VecD ia2 = simd::broadcast(inv_a2);
      const double* src = reinterpret_cast<const double*>(in.data());
      double* dst = reinterpret_cast<double*>(out.data());
      for (; i + kC <= in.size();
           i += kC, src += simd::kLanes, dst += simd::kLanes) {
        const simd::VecD v = simd::load(src);
        const simd::VecD mag2 = simd::dup_even(v) * simd::dup_even(v) +
                                simd::dup_odd(v) * simd::dup_odd(v);
        const simd::VecD denom = simd::sqrt(one + two * mag2 * ia2);
        simd::store(dst, simd::complex_mul(v, g) / denom);
      }
    }
  }
  for (; i < in.size(); ++i) {
    const Cplx v = in[i];
    const double mag2 = v.real() * v.real() + v.imag() * v.imag();
    const double denom = std::sqrt(1.0 + 2.0 * mag2 * inv_a2);
    out[i] = Cplx((v.real() * gr - v.imag() * gi) / denom,
                  (v.imag() * gr + v.real() * gi) / denom);
  }
  if (rng != nullptr && noisy()) {
    // The draws stay strictly ordered (re before im, sample by sample):
    // the rng stream is part of the determinism contract, and `out` viewed
    // as interleaved doubles is exactly that order.
    rng->add_normal({reinterpret_cast<double*>(out.data()), 2 * out.size()},
                    noise_sigma(fs));
  }
}

double BehavioralLna::noise_sigma(double fs) const {
  STF_REQUIRE(fs > 0.0, "BehavioralLna::noise_sigma: fs must be > 0");
  // Excess input-referred noise PSD over the source floor:
  // (F - 1) * 4 k T Rs (V^2/Hz as a source EMF), amplified by |H|^2.
  // Complex envelope noise in the simulation bandwidth fs has per-sample
  // variance PSD * fs (so each real quadrature carries PSD * fs / 2).
  const double f_lin = std::pow(10.0, nf_db_ / 10.0);
  const double psd_in = (f_lin - 1.0) * 4.0 * stf::circuit::kBoltzmann *
                        stf::circuit::kNoiseTemperature * rs_ohms_;
  return std::sqrt(psd_in * fs / 2.0) * std::abs(gain_);
}

void BehavioralLna::process_lanes(std::span<const BehavioralLna* const> duts,
                                  std::span<const Cplx> in,
                                  std::span<double> out) {
  const std::size_t k = duts.size();
  STF_REQUIRE(k != 0, "BehavioralLna::process_lanes: no devices");
  STF_REQUIRE(out.size() == 2 * in.size() * k,
              "BehavioralLna::process_lanes: out must hold 2 * in.size() "
              "quadratures per device");
  for (const BehavioralLna* d : duts)
    STF_REQUIRE(d != nullptr, "BehavioralLna::process_lanes: null device");
  // Each lane runs process_into's reference operations on the shared input
  // sample: |v|^2 is the same for every lane, so it is computed once, and
  // only the gain and 1/A^2 differ per lane.
  const auto inv_a2 = [](const BehavioralLna& d) {
    return std::isinf(d.iip3_v_) ? 0.0 : 1.0 / (d.iip3_v_ * d.iip3_v_);
  };
  double* dst = out.data();
  if constexpr (simd::kLanes >= 2) {
    if (k == simd::kLanes && simd::enabled()) {
      double gr[simd::kLanes], gi[simd::kLanes], ia2[simd::kLanes];
      for (std::size_t d = 0; d < k; ++d) {
        gr[d] = duts[d]->gain_.real();
        gi[d] = duts[d]->gain_.imag();
        ia2[d] = inv_a2(*duts[d]);
      }
      const simd::VecD g_re = simd::load(gr);
      const simd::VecD g_im = simd::load(gi);
      const simd::VecD lane_ia2 = simd::load(ia2);
      const simd::VecD one = simd::broadcast(1.0);
      for (const Cplx v : in) {
        const double mag2 = v.real() * v.real() + v.imag() * v.imag();
        const simd::VecD denom =
            simd::sqrt(one + simd::broadcast(2.0 * mag2) * lane_ia2);
        const simd::VecD re = simd::broadcast(v.real());
        const simd::VecD im = simd::broadcast(v.imag());
        simd::store(dst, (re * g_re - im * g_im) / denom);
        simd::store(dst + k, (im * g_re + re * g_im) / denom);
        dst += 2 * k;
      }
      return;
    }
  }
  for (const Cplx v : in) {
    const double mag2 = v.real() * v.real() + v.imag() * v.imag();
    for (std::size_t d = 0; d < k; ++d) {
      const double gr = duts[d]->gain_.real();
      const double gi = duts[d]->gain_.imag();
      const double denom = std::sqrt(1.0 + 2.0 * mag2 * inv_a2(*duts[d]));
      dst[d] = (v.real() * gr - v.imag() * gi) / denom;
      dst[k + d] = (v.imag() * gr + v.real() * gi) / denom;
    }
    dst += 2 * k;
  }
}

EnvelopeSignal IdealGainDut::process(const EnvelopeSignal& in,
                                     stf::stats::Rng* rng) const {
  EnvelopeSignal out = in;
  process_into(out.x, in.fs, rng, out.x);
  return out;
}

void IdealGainDut::process_into(std::span<const Cplx> in, double,
                                stf::stats::Rng*, std::span<Cplx> out) const {
  STF_REQUIRE(out.size() == in.size(),
              "IdealGainDut::process_into: in/out length mismatch");
  const double gr = gain_.real();
  const double gi = gain_.imag();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Cplx v = in[i];
    out[i] = Cplx(v.real() * gr - v.imag() * gi,
                  v.imag() * gr + v.real() * gi);
  }
}

double iip3_dbm_to_source_amplitude(double iip3_dbm, double rs_ohms) {
  const double p_watts = 1e-3 * std::pow(10.0, iip3_dbm / 10.0);
  return std::sqrt(8.0 * rs_ohms * p_watts);
}

// stf-analyze: allow(api-contract) -- Lna900::build checks kNumParams.
LnaCharacterization extract_lna_dut(const std::vector<double>& process) {
  using namespace stf::circuit;
  const Netlist nl = Lna900::build(process);
  const DcSolution dc = solve_dc(nl);
  const AcAnalysis ac(nl, dc);
  const RfPort port = Lna900::port();

  LnaCharacterization out;
  out.specs.gain_db = transducer_gain_db(ac, Lna900::kF0, port);
  out.specs.nf_db = noise_figure_db(ac, Lna900::kF0, port);
  out.specs.iip3_dbm = iip3_dbm(ac, Lna900::kF0, Lna900::kF2, port);

  const Phasor h = voltage_transfer(ac, Lna900::kF0, port);
  const double a_ip3 =
      iip3_dbm_to_source_amplitude(out.specs.iip3_dbm, port.rs_ohms);
  out.dut = std::make_shared<BehavioralLna>(h, a_ip3, out.specs.nf_db,
                                            port.rs_ohms);
  return out;
}

}  // namespace stf::rf
