// Signature acquisition: stimulus -> load board -> DUT -> digitizer -> FFT
// magnitude (paper Fig. 3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/pwl.hpp"
#include "rf/dut.hpp"
#include "rf/faults.hpp"
#include "rf/loadboard.hpp"
#include "sigtest/config.hpp"
#include "stats/rng.hpp"

namespace stf::sigtest {

/// A signature is a real feature vector extracted from one acquisition
/// (FFT-magnitude bins in the production configuration).
using Signature = std::vector<double>;

/// Runs the full signature pipeline for one DUT and one stimulus.
///
/// Immutable after construction and holds no lock: acquire() is const and
/// thread-safe, so a single acquirer is shared by the parallel
/// sensitivity/optimizer loops. The load board and its LPF design are
/// hoisted into the constructor and reused across every acquisition. The
/// stimulus is rendered and upconverted (mixer 1) once per thread: each
/// thread keeps its last prepared stimulus, keyed by the breakpoints,
/// fs_sim, the sample count and the up-mixer, and starts every capture
/// from a copy of it. A production lot replays one stimulus and a GA
/// objective evaluation acquires its candidate 2k times on one thread, so
/// nearly every capture hits; acquirers of other configurations on the
/// same thread miss rather than share.
///
/// Device lanes: raw_capture_lanes() captures a whole set of devices that
/// share the stimulus, grouping BehavioralLna devices one per vector lane
/// through the board (rf::LoadBoard::capture_lanes). The lot engine runs
/// each attempt's captures through it and the GA's Eq. 10 objective its
/// perturbed devices; every capture, and every stream position after it,
/// is bit-identical to raw_capture_into() on that device alone, which
/// stays the scalar reference.
class SignatureAcquirer {
 public:
  /// max_bins caps the signature dimension; longer captures are
  /// group-averaged down (spectral smoothing) so the regression stays
  /// well-posed for small calibration sets.
  explicit SignatureAcquirer(const SignatureTestConfig& config,
                             std::size_t max_bins = 64);

  /// Acquire a signature. rng enables DUT + digitizer noise; nullptr gives
  /// the noiseless response used for sensitivity estimation.
  Signature acquire(const stf::rf::RfDut& dut,
                    const stf::dsp::PwlWaveform& stimulus,
                    stf::stats::Rng* rng) const;

  /// Acquire through a degraded measurement chain: the injector corrupts
  /// the digitized capture (at `sequence` in the lot) before the signature
  /// stage. Unlike the clean acquire(), no finiteness firewall runs -- a
  /// corrupted signature is exactly what the guarded runtime must see and
  /// classify, not an internal contract violation.
  Signature acquire(const stf::rf::RfDut& dut,
                    const stf::dsp::PwlWaveform& stimulus,
                    stf::stats::Rng* rng, const stf::rf::FaultInjector& faults,
                    std::uint64_t sequence) const;

  /// The digitized time-domain capture (before the FFT stage).
  std::vector<double> raw_capture(const stf::rf::RfDut& dut,
                                  const stf::dsp::PwlWaveform& stimulus,
                                  stf::stats::Rng* rng) const;

  /// Allocation-free raw_capture into caller storage (out.size() must be
  /// capture_length()). The upconverted stimulus is cached per thread and
  /// all intermediate buffers come from the per-thread capture arena, so
  /// steady-state acquisitions allocate nothing on the heap.
  void raw_capture_into(const stf::rf::RfDut& dut,
                        const stf::dsp::PwlWaveform& stimulus,
                        stf::stats::Rng* rng, std::span<double> out) const;

  /// raw_capture_into() for every device of a set that shares `stimulus`:
  /// device i draws from rngs[i] (null: noiseless; non-null streams must be
  /// distinct) and its capture lands in out[i * capture_length(), ...), so
  /// out.size() must be duts.size() * capture_length(). BehavioralLna
  /// devices run through the board in groups of rf::LoadBoard::lane_width()
  /// (callers that split a set over threads split it in multiples of that);
  /// other device models, a group of one, and a build or run without
  /// vector lanes take raw_capture_into() one device at a time. Each
  /// capture and each stream's position afterwards are bit-identical to
  /// raw_capture_into() on that device alone. Scratch comes from the
  /// per-thread capture arena.
  void raw_capture_lanes(std::span<const stf::rf::RfDut* const> duts,
                         const stf::dsp::PwlWaveform& stimulus,
                         std::span<stf::stats::Rng* const> rngs,
                         std::span<double> out) const;

  /// Number of samples in one digitized capture.
  std::size_t capture_length() const;

  /// Allocation-free signature_from_capture into caller storage
  /// (out.size() must equal the signature length for this capture size --
  /// signature_length() for production captures). Bit-identical to the
  /// allocating overload.
  void signature_into(std::span<const double> capture,
                      std::span<double> out) const;

  /// signature_into() for each of `count` same-length captures held back
  /// to back in `captures`; signature i lands in out[i * m, (i + 1) * m),
  /// m = out.size() / count. FFT-magnitude signatures run
  /// dsp::fft_lane_width() at a time: the zero-padded captures share one
  /// lane-interleaved buffer (spare lanes stay zero) and one
  /// dsp::fft_pow2_lanes() pass, and then each lane takes signature_into's
  /// magnitudes and pooling. A group of one, a width of 1 and time-domain
  /// signatures take signature_into() per capture. Every signature is
  /// bit-identical to signature_into() on its capture. Scratch comes from
  /// the per-thread capture arena.
  void signatures_into(std::span<const double> captures, std::size_t count,
                       std::span<double> out) const;

  /// The signature stage alone: FFT-magnitude (or pooled time-domain) bins
  /// of an already-digitized capture. Lets callers that need to inspect or
  /// corrupt the capture (the guarded runtime, the fault benches) reuse
  /// the exact production signature definition.
  Signature signature_from_capture(const std::vector<double>& capture) const;

  /// Signature length produced by acquire() for this configuration.
  std::size_t signature_length() const;

  /// Approximate standard deviation of the digitizer noise as seen on one
  /// signature bin -- the sigma_m of the Eq. 10 objective.
  double expected_bin_noise_sigma() const;

  const SignatureTestConfig& config() const { return config_; }

 private:
  /// Signature length signature_into() produces for an n_capture-sample
  /// capture (pool_bins ceil-division semantics).
  std::size_t signature_length_for(std::size_t n_capture) const;
  /// In-band bins the FFT signature keeps of an n_fft-point spectrum,
  /// before pooling down to max_bins.
  std::size_t kept_bins(std::size_t n_fft) const;

  SignatureTestConfig config_;
  std::size_t max_bins_;
  stf::rf::LoadBoard board_;
};

}  // namespace stf::sigtest
