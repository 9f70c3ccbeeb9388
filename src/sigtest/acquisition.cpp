#include "sigtest/acquisition.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/arena.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "rf/loadboard.hpp"

namespace stf::sigtest {

SignatureTestConfig SignatureTestConfig::simulation_study() {
  SignatureTestConfig c;
  c.board.carrier_hz = 900e6;
  c.board.lo_offset_hz = 100e3;
  c.board.lpf_order = 5;
  c.board.lpf_cutoff_hz = 10e6;
  c.digitizer.fs_hz = 20e6;
  c.digitizer.noise_rms_v = 1e-3;  // paper: 1 mV gaussian noise
  c.fs_sim_hz = 80e6;
  c.capture_s = 5e-6;
  c.signature_band_hz = 10e6;
  return c;
}

SignatureTestConfig SignatureTestConfig::hardware_study() {
  SignatureTestConfig c;
  c.board.carrier_hz = 900e6;
  c.board.lo_offset_hz = 100e3;  // LOs at 900 MHz and 900.1 MHz
  c.board.lpf_order = 5;
  c.board.lpf_cutoff_hz = 400e3;
  c.digitizer.fs_hz = 1e6;       // 1 MHz digitizing rate
  c.digitizer.noise_rms_v = 1e-3;
  c.fs_sim_hz = 4e6;
  c.capture_s = 5e-3;            // 5 ms of data capture
  c.signature_band_hz = 400e3;
  return c;
}

SignatureAcquirer::SignatureAcquirer(const SignatureTestConfig& config,
                                     std::size_t max_bins)
    : config_(config),
      max_bins_(max_bins),
      // The board (and its Butterworth LPF design) is fixed by the config,
      // so it is built once here instead of once per acquisition -- the
      // optimizer acquires thousands of signatures through one acquirer.
      board_(config.board, config.fs_sim_hz) {
  STF_REQUIRE(max_bins_ != 0, "SignatureAcquirer: max_bins must be > 0");
  STF_REQUIRE(config_.capture_s > 0.0,
              "SignatureAcquirer: capture_s must be > 0");
}

namespace {

// Samples of the simulated analog capture window.
std::size_t sim_length(const SignatureTestConfig& config) {
  return static_cast<std::size_t>(
             std::floor(config.capture_s * config.fs_sim_hz)) +
         1;
}

// A thread's prepared stimulus: the rendered PWL already through mixer 1,
// the last board stage that depends on the stimulus alone, under the key
// of everything that determines it. Each thread owns its entry, so lookups
// take no lock and concurrent GA candidates never evict one another (the
// rotation_table idiom of rf/loadboard.cpp).
struct PreparedStimulus {
  std::vector<stf::dsp::PwlPoint> points;
  double fs_sim = 0.0;
  std::size_t n_sim = 0;
  stf::rf::MixerModel up_mixer;
  bool valid = false;
  std::vector<stf::rf::Cplx> env;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Breakpoints match bitwise: -0.0 == 0.0, yet they can render different
// bits.
bool same_points(const std::vector<stf::dsp::PwlPoint>& a,
                 const std::vector<stf::dsp::PwlPoint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const stf::dsp::PwlPoint& p,
                       const stf::dsp::PwlPoint& q) {
                      return same_bits(p.t, q.t) && same_bits(p.v, q.v);
                    });
}

// The calling thread's upconverted envelope of `stimulus` on `board`,
// rendered and upconverted on a miss. Valid until this thread's next call.
std::span<const stf::rf::Cplx> prepared_stimulus(
    const stf::rf::LoadBoard& board, const stf::dsp::PwlWaveform& stimulus,
    double fs_sim, std::size_t n_sim) {
  thread_local PreparedStimulus t;
  const stf::rf::MixerModel& mixer = board.config().up_mixer;
  if (!t.valid || t.fs_sim != fs_sim || t.n_sim != n_sim ||
      t.up_mixer != mixer || !same_points(t.points, stimulus.points())) {
    t.valid = false;  // a throwing render or mixer leaves no stale entry
    const std::vector<double> rendered = stimulus.render(fs_sim, n_sim);
    t.env.resize(n_sim);
    board.upconvert_into(rendered, t.env);
    t.points = stimulus.points();
    t.fs_sim = fs_sim;
    t.n_sim = n_sim;
    t.up_mixer = mixer;
    t.valid = true;
  }
  return t.env;
}

}  // namespace

std::size_t SignatureAcquirer::capture_length() const {
  return config_.digitizer.capture_length(sim_length(config_),
                                          config_.fs_sim_hz);
}

// The ctor validates config_; a null rng selects the noiseless path.
// stf-analyze: allow(api-contract)
std::vector<double> SignatureAcquirer::raw_capture(
    const stf::rf::RfDut& dut, const stf::dsp::PwlWaveform& stimulus,
    stf::stats::Rng* rng) const {
  std::vector<double> capture(capture_length());
  raw_capture_into(dut, stimulus, rng, capture);
  return capture;
}

void SignatureAcquirer::raw_capture_into(const stf::rf::RfDut& dut,
                                         const stf::dsp::PwlWaveform& stimulus,
                                         stf::stats::Rng* rng,
                                         std::span<double> out) const {
  STF_TRACE_SPAN("acq.capture");
  STF_REQUIRE(out.size() == capture_length(),
              "SignatureAcquirer::raw_capture_into: out length must be "
              "capture_length()");
  const std::size_t n_sim = sim_length(config_);
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  // The board consumes its drive envelope in place, so every capture
  // starts from an arena copy of this thread's prepared stimulus.
  stf::core::ArenaVector<stf::rf::Cplx> env{
      stf::core::ArenaAllocator<stf::rf::Cplx>(&arena)};
  {
    STF_TRACE_SPAN("acq.render");
    const std::span<const stf::rf::Cplx> prepared =
        prepared_stimulus(board_, stimulus, config_.fs_sim_hz, n_sim);
    env.assign(prepared.begin(), prepared.end());
  }
  stf::core::ArenaVector<double> analog(
      n_sim, 0.0, stf::core::ArenaAllocator<double>(&arena));
  board_.run_upconverted_into({env.data(), env.size()}, config_.fs_sim_hz,
                              dut, rng, {analog.data(), analog.size()});
  STF_TRACE_SPAN("acq.digitize");
  config_.digitizer.capture_into({analog.data(), analog.size()},
                                 config_.fs_sim_hz, rng, out);
}

void SignatureAcquirer::raw_capture_lanes(
    std::span<const stf::rf::RfDut* const> duts,
    const stf::dsp::PwlWaveform& stimulus,
    std::span<stf::stats::Rng* const> rngs, std::span<double> out) const {
  const std::size_t n_cap = capture_length();
  STF_REQUIRE(rngs.size() == duts.size(),
              "SignatureAcquirer::raw_capture_lanes: one rng slot per device");
  STF_REQUIRE(out.size() == duts.size() * n_cap,
              "SignatureAcquirer::raw_capture_lanes: out must hold one "
              "capture per device");
  for (const stf::rf::RfDut* dut : duts)
    STF_REQUIRE(dut != nullptr,
                "SignatureAcquirer::raw_capture_lanes: null device");
  const auto capture = [&](std::size_t i) {
    return out.subspan(i * n_cap, n_cap);
  };
  const std::size_t width = stf::rf::LoadBoard::lane_width();
  if (width == 1 || duts.size() == 1) {
    for (std::size_t i = 0; i < duts.size(); ++i)
      raw_capture_into(*duts[i], stimulus, rngs[i], capture(i));
    return;
  }
  STF_TRACE_SPAN("acq.capture_lanes");
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  // The devices the lane kernel models, in set order; any other model
  // takes the per-device path.
  stf::core::ArenaVector<std::size_t> lanes{
      stf::core::ArenaAllocator<std::size_t>(&arena)};
  lanes.reserve(duts.size());
  for (std::size_t i = 0; i < duts.size(); ++i) {
    if (dynamic_cast<const stf::rf::BehavioralLna*>(duts[i]) != nullptr)
      lanes.push_back(i);
    else
      raw_capture_into(*duts[i], stimulus, rngs[i], capture(i));
  }
  // This TU builds without the kernels' ISA flags, so its simd::kLanes
  // can be narrower than theirs: the group arrays take the kernels' width.
  stf::core::ArenaVector<const stf::rf::BehavioralLna*> group(
      width, nullptr,
      stf::core::ArenaAllocator<const stf::rf::BehavioralLna*>(&arena));
  stf::core::ArenaVector<stf::stats::Rng*> group_rngs(
      width, nullptr, stf::core::ArenaAllocator<stf::stats::Rng*>(&arena));
  stf::core::ArenaVector<std::span<double>> group_out(
      width, std::span<double>{},
      stf::core::ArenaAllocator<std::span<double>>(&arena));
  // The shared drive envelope is read in place, with no per-device copy.
  // A group of one below looks the same entry up again, so it stays valid.
  const std::span<const stf::rf::Cplx> env = prepared_stimulus(
      board_, stimulus, config_.fs_sim_hz, sim_length(config_));
  for (std::size_t g0 = 0; g0 < lanes.size(); g0 += width) {
    const std::size_t g = std::min(width, lanes.size() - g0);
    if (g == 1) {
      raw_capture_into(*duts[lanes[g0]], stimulus, rngs[lanes[g0]],
                       capture(lanes[g0]));
      continue;
    }
    for (std::size_t d = 0; d < g; ++d) {
      const std::size_t i = lanes[g0 + d];
      group[d] = static_cast<const stf::rf::BehavioralLna*>(duts[i]);
      group_rngs[d] = rngs[i];
      group_out[d] = capture(i);
    }
    board_.capture_lanes(env, config_.fs_sim_hz, {group.data(), g},
                         {group_rngs.data(), g}, config_.digitizer,
                         {group_out.data(), g});
  }
}

namespace {

// Bins averaged into each pooled output when n bins are capped at
// max_bins: 1 when they fit, else the ceil-division group.
std::size_t pool_group(std::size_t n, std::size_t max_bins) {
  return n <= max_bins ? 1 : (n + max_bins - 1) / max_bins;
}

// Group-average `bins` down to out.size() entries (ceil-division groups of
// size derived from max_bins, exactly the historical pool_bins semantics).
void pool_bins_into(std::span<const double> bins, std::size_t max_bins,
                    std::span<double> out) {
  if (bins.size() <= max_bins) {
    STF_ASSERT(out.size() == bins.size(), "pool_bins_into: length mismatch");
    for (std::size_t i = 0; i < bins.size(); ++i) out[i] = bins[i];
    return;
  }
  const std::size_t group = pool_group(bins.size(), max_bins);
  std::size_t o = 0;
  for (std::size_t i = 0; i < bins.size(); i += group) {
    const std::size_t end = std::min(i + group, bins.size());
    double acc = 0.0;
    for (std::size_t j = i; j < end; ++j) acc += bins[j];
    STF_ASSERT(o < out.size(), "pool_bins_into: length mismatch");
    out[o++] = acc / static_cast<double>(end - i);
  }
  STF_ASSERT(o == out.size(), "pool_bins_into: length mismatch");
}

// Output count pool_bins_into produces for n input bins.
std::size_t pooled_count(std::size_t n, std::size_t max_bins) {
  const std::size_t group = pool_group(n, max_bins);
  return (n + group - 1) / group;
}

}  // namespace

Signature SignatureAcquirer::signature_from_capture(
    const std::vector<double>& capture) const {
  Signature s(signature_length_for(capture.size()));
  signature_into(capture, s);
  return s;
}

// Pure length arithmetic: any n_capture (including 0, which yields 0 bins)
// maps to a well-defined count.
std::size_t SignatureAcquirer::signature_length_for(
    std::size_t n_capture) const {
  if (!config_.use_fft_magnitude) return pooled_count(n_capture, max_bins_);
  return pooled_count(kept_bins(stf::dsp::next_pow2(n_capture)), max_bins_);
}

std::size_t SignatureAcquirer::kept_bins(std::size_t n_fft) const {
  const double band = config_.signature_band_hz > 0.0
                          ? config_.signature_band_hz
                          : config_.digitizer.fs_hz / 2.0;
  const auto n_keep = static_cast<std::size_t>(
      band / config_.digitizer.fs_hz * static_cast<double>(n_fft));
  return std::min(std::max<std::size_t>(n_keep, 2), n_fft / 2);
}

void SignatureAcquirer::signature_into(std::span<const double> capture,
                                       std::span<double> out) const {
  STF_REQUIRE(!capture.empty(),
              "SignatureAcquirer::signature_into: empty capture");
  STF_REQUIRE(out.size() == signature_length_for(capture.size()),
              "SignatureAcquirer::signature_into: out length must be "
              "signature_length_for(capture.size())");
  if (!config_.use_fft_magnitude) {
    pool_bins_into(capture, max_bins_, out);
    return;
  }

  // Zero-pad to a power of two, take the normalized magnitude spectrum and
  // keep the in-band bins: the magnitude step is what removes the Eq. 5
  // phase term from the signature. The pad buffer and the kept bins come
  // from the per-thread capture arena and the transform runs in place, so
  // the production signature stage allocates nothing on the heap.
  STF_TRACE_SPAN("acq.fft");
  const std::size_t n_fft = stf::dsp::next_pow2(capture.size());
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<stf::dsp::cplx> padded(
      n_fft, stf::dsp::cplx{}, stf::core::ArenaAllocator<stf::dsp::cplx>(&arena));
  for (std::size_t i = 0; i < capture.size(); ++i)
    padded[i] = stf::dsp::cplx(capture[i], 0.0);
  stf::dsp::fft_pow2_inplace({padded.data(), padded.size()});

  const std::size_t n_keep = kept_bins(n_fft);
  if (n_keep == out.size()) {
    // No pooling: write the normalized magnitudes straight into out.
    for (std::size_t k = 0; k < n_keep; ++k)
      out[k] = std::abs(padded[k]) / static_cast<double>(capture.size());
    return;
  }
  stf::core::ArenaVector<double> bins(
      n_keep, 0.0, stf::core::ArenaAllocator<double>(&arena));
  for (std::size_t k = 0; k < n_keep; ++k)
    bins[k] = std::abs(padded[k]) / static_cast<double>(capture.size());
  pool_bins_into({bins.data(), bins.size()}, max_bins_, out);
}

void SignatureAcquirer::signatures_into(std::span<const double> captures,
                                        std::size_t count,
                                        std::span<double> out) const {
  STF_REQUIRE(count >= 1 && !captures.empty() && captures.size() % count == 0,
              "SignatureAcquirer::signatures_into: captures must hold count "
              "same-length captures");
  const std::size_t n_cap = captures.size() / count;
  const std::size_t m = signature_length_for(n_cap);
  STF_REQUIRE(out.size() == count * m,
              "SignatureAcquirer::signatures_into: out must hold one "
              "signature per capture");
  const auto capture = [&](std::size_t i) {
    return captures.subspan(i * n_cap, n_cap);
  };
  const auto signature = [&](std::size_t i) { return out.subspan(i * m, m); };
  const std::size_t width = stf::dsp::fft_lane_width();
  if (!config_.use_fft_magnitude || width == 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i)
      signature_into(capture(i), signature(i));
    return;
  }
  STF_TRACE_SPAN("acq.fft_lanes");
  const std::size_t n_fft = stf::dsp::next_pow2(n_cap);
  const std::size_t n_keep = kept_bins(n_fft);
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> re(
      n_fft * width, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> im(
      n_fft * width, 0.0, stf::core::ArenaAllocator<double>(&arena));
  stf::core::ArenaVector<double> bins(
      n_keep, 0.0, stf::core::ArenaAllocator<double>(&arena));
  for (std::size_t g0 = 0; g0 < count; g0 += width) {
    const std::size_t g = std::min(width, count - g0);
    if (g == 1) {
      signature_into(capture(g0), signature(g0));
      continue;
    }
    STF_COUNT("acq.signature_lane_groups");
    std::fill(re.begin(), re.end(), 0.0);
    std::fill(im.begin(), im.end(), 0.0);
    for (std::size_t d = 0; d < g; ++d) {
      const std::span<const double> c = capture(g0 + d);
      for (std::size_t i = 0; i < n_cap; ++i) re[i * width + d] = c[i];
    }
    stf::dsp::fft_pow2_lanes({re.data(), re.size()}, {im.data(), im.size()},
                             width);
    // signature_into's magnitudes and pooling, lane by lane.
    for (std::size_t d = 0; d < g; ++d) {
      const std::span<double> sig = signature(g0 + d);
      const std::span<double> mags =
          n_keep == m ? sig : std::span<double>(bins.data(), bins.size());
      for (std::size_t k = 0; k < n_keep; ++k)
        mags[k] = std::abs(stf::dsp::cplx(re[k * width + d],
                                          im[k * width + d])) /
                  static_cast<double>(n_cap);
      if (n_keep != m) pool_bins_into(mags, max_bins_, sig);
    }
  }
}

Signature SignatureAcquirer::acquire(const stf::rf::RfDut& dut,
                                     const stf::dsp::PwlWaveform& stimulus,
                                     stf::stats::Rng* rng) const {
  STF_TRACE_SPAN("acq.acquire");
  STF_COUNT("acq.signatures");
  // Per-acquisition wall time feeds the test-economics story: the histogram
  // is the distribution of simulated capture-plus-FFT cost per device.
  const std::uint64_t t0 =
      stf::core::telemetry::enabled() ? stf::core::telemetry::now_ns() : 0;
  stf::core::Arena& arena = stf::core::capture_arena();
  const stf::core::ArenaScope scope(arena);
  stf::core::ArenaVector<double> capture(
      capture_length(), 0.0, stf::core::ArenaAllocator<double>(&arena));
  const std::span<double> cap_span(capture.data(), capture.size());
  raw_capture_into(dut, stimulus, rng, cap_span);
  Signature s(signature_length_for(capture.size()));
  signature_into(cap_span, s);
  STF_RECORD("acq.capture_us",
             static_cast<double>(stf::core::telemetry::now_ns() - t0) / 1e3);
  STF_ENSURE(stf::contracts::finite(s),
             "SignatureAcquirer::acquire: non-finite signature bin (NaN/Inf "
             "leaked through the stimulus/envelope/FFT chain)");
  return s;
}

std::size_t SignatureAcquirer::signature_length() const {
  return signature_length_for(capture_length());
}

double SignatureAcquirer::expected_bin_noise_sigma() const {
  const double sigma_t = config_.digitizer.noise_rms_v;
  if (!config_.use_fft_magnitude) return sigma_t;
  // White time-domain noise of std sigma_t spreads across the FFT: each
  // normalized complex bin has std sigma_t / sqrt(n); group-averaging g
  // bins reduces it by sqrt(g) more.
  const std::size_t n_cap = capture_length();
  const std::size_t n_keep = kept_bins(stf::dsp::next_pow2(n_cap));
  const double group = static_cast<double>(pool_group(n_keep, max_bins_));
  return sigma_t / std::sqrt(static_cast<double>(n_cap) * group);
}

}  // namespace stf::sigtest
