#include "probes.hpp"

#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "circuit/lna900.hpp"
#include "dsp/fft.hpp"
#include "dsp/iir.hpp"
#include "linalg/svd.hpp"
#include "net/frame.hpp"
#include "rf/loadboard.hpp"
#include "sigtest/optimizer.hpp"
#include "store/calibration_store.hpp"

namespace perfbench {

namespace {

using namespace stf;

/// Time `call(r)` once per repetition, after an untimed `prepare(r)`, and
/// return the per-call microseconds.
template <class Prepare, class Call>
std::vector<double> time_calls(std::size_t reps, Prepare&& prepare,
                               Call&& call) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    prepare(r);
    const auto t0 = Clock::now();
    call(r);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return us;
}

template <class Call>
double median_us(std::size_t reps, Call&& call) {
  return median(time_calls(reps, [](std::size_t) {}, call));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

void add_layer_probes(const ProbeInputs& in, Report& report) {
  if (in.runtime == nullptr || in.devices.empty())
    throw std::invalid_argument("add_layer_probes: no runtime or devices");
  const sigtest::GuardedRuntime& guarded = in.runtime->guarded();
  const sigtest::FastestRuntime& fastest = guarded.runtime();
  const sigtest::SignatureAcquirer& acq = fastest.acquirer();
  const sigtest::SignatureTestConfig& cfg = acq.config();
  const dsp::PwlWaveform& stimulus = fastest.stimulus();
  const std::size_t nd = in.devices.size();
  const std::size_t reps = 4 * nd;
  const auto dev = [&](std::size_t r) -> const rf::RfDut& {
    return *in.devices[r % nd];
  };
  stats::Rng rng(2024);

  // rf: the load board and its stages, on the rendered production stimulus.
  const double fs = cfg.fs_sim_hz;
  const auto n_sim =
      static_cast<std::size_t>(std::floor(cfg.capture_s * fs)) + 1;
  const std::vector<double> rendered = stimulus.render(fs, n_sim);
  const rf::LoadBoard board(cfg.board, fs);
  std::vector<double> analog(n_sim);
  report.add("rf.board_run_us", median_us(reps, [&](std::size_t r) {
               board.run_into(rendered, fs, dev(r), &rng, analog);
             }), "us");

  std::vector<rf::Cplx> drive(n_sim);
  std::vector<rf::Cplx> env(n_sim);
  for (std::size_t i = 0; i < n_sim; ++i) drive[i] = rf::Cplx(rendered[i], 0.0);
  report.add("rf.mixer_us",
             median(time_calls(
                 reps, [&](std::size_t) { env = drive; },
                 [&](std::size_t) { cfg.board.up_mixer.apply(env); })),
             "us");
  cfg.board.up_mixer.apply(drive);
  report.add("rf.dut_us", median_us(reps, [&](std::size_t r) {
               dev(r).process_into(drive, fs, &rng, env);
             }), "us");

  const dsp::BiquadCascade lpf = dsp::butterworth_lowpass(
      cfg.board.lpf_order, cfg.board.lpf_cutoff_hz, fs);
  std::vector<double> work;
  report.add("dsp.lpf_us",
             median(time_calls(
                 reps, [&](std::size_t) { work = analog; },
                 [&](std::size_t) { lpf.filter_inplace(work); })),
             "us");

  std::vector<double> capture(acq.capture_length());
  report.add("rf.digitize_us", median_us(reps, [&](std::size_t) {
               cfg.digitizer.capture_into(analog, fs, &rng, capture);
             }), "us");

  std::vector<dsp::cplx> padded(dsp::next_pow2(capture.size()));
  report.add("dsp.fft_us",
             median(time_calls(
                 reps,
                 [&](std::size_t) {
                   std::fill(padded.begin(), padded.end(), dsp::cplx{});
                   for (std::size_t i = 0; i < capture.size(); ++i)
                     padded[i] = dsp::cplx(capture[i], 0.0);
                 },
                 [&](std::size_t) { dsp::fft_pow2_inplace(padded); })),
             "us");

  // sigtest: acquisition, validation and prediction building blocks.
  const double raw_capture_us = median_us(reps, [&](std::size_t r) {
    acq.raw_capture_into(dev(r), stimulus, &rng, capture);
  });
  std::vector<double> signature(acq.signature_length());
  const double signature_us = median_us(reps, [&](std::size_t) {
    acq.signature_into(capture, signature);
  });
  const rf::FaultInjector standard_faults =
      rf::FaultInjector::parse(kFaultSpec);
  const rf::FaultInjector& probe_faults =
      in.faults != nullptr ? *in.faults : standard_faults;
  const double fault_apply_us = median(time_calls(
      reps, [&](std::size_t) { work = capture; },
      [&](std::size_t r) {
        probe_faults.apply(std::span<double>(work), cfg.digitizer.fs_hz, r,
                           rng);
      }));
  const double capture_attempt_us = median_us(reps, [&](std::size_t r) {
    guarded.capture_attempt(dev(r), rng, in.faults, r, 1);
  });
  const double inspect_us = median_us(reps, [&](std::size_t) {
    guarded.inspect_capture(std::span<const double>(capture));
  });
  double score = 0.0;
  const double screen_us = median_us(reps, [&](std::size_t) {
    guarded.screen_signature(std::span<const double>(signature), &score);
  });
  const auto model = fastest.model();
  const double predict_us =
      median_us(reps, [&](std::size_t) { model->predict(signature); });
  const std::size_t batch_rows = in.runtime->options().batch_size;
  la::Matrix batch(batch_rows, signature.size());
  for (std::size_t r = 0; r < batch_rows; ++r) batch.set_row(r, signature);
  const double predict_batch_us =
      median_us(reps, [&](std::size_t) { model->predict_batch(batch); });

  // The serial guarded path and what its stage probes leave unexplained.
  std::vector<sigtest::TestDisposition> serial(reps);
  const double test_device_us = mean(time_calls(
      reps, [](std::size_t) {},
      [&](std::size_t r) {
        stats::Rng child = stats::Rng(77).derive(r);
        serial[r] = guarded.test_device(dev(r), child, in.faults, r);
      }));
  double captures = 0.0, attempts = 0.0, predicted = 0.0;
  for (const auto& d : serial) {
    captures += d.captures;
    attempts += d.attempts;
    predicted += d.has_prediction() ? 1.0 : 0.0;
  }
  const double n_serial = static_cast<double>(serial.size());
  const double per_capture = raw_capture_us + inspect_us +
                             (in.faults != nullptr ? fault_apply_us : 0.0);
  const double explained = captures / n_serial * per_capture +
                           attempts / n_serial * (signature_us + screen_us) +
                           predicted / n_serial * predict_us;

  sigtest::LotResult lot;
  const double test_lot_us = median(time_calls(
      3, [](std::size_t) {},
      [&](std::size_t) {
        lot = in.runtime->test_lot(in.devices, stats::Rng(77), in.faults);
      }));

  report.add("sigtest.raw_capture_us", raw_capture_us, "us");
  report.add("sigtest.signature_us", signature_us, "us");
  report.add("rf.fault_apply_us", fault_apply_us, "us");
  report.add("sigtest.capture_attempt_us", capture_attempt_us, "us");
  report.add("sigtest.inspect_us", inspect_us, "us");
  report.add("sigtest.screen_us", screen_us, "us");
  report.add("sigtest.predict_us", predict_us, "us");
  report.add("sigtest.predict_batch_us", predict_batch_us, "us");
  report.add("sigtest.test_device_us", test_device_us, "us");
  report.add("sigtest.residual_us_per_device", test_device_us - explained,
             "us");
  report.add("sigtest.test_lot_us_per_device",
             test_lot_us / static_cast<double>(nd), "us");

  // net: the wire encoding of this lot's dispositions.
  net::DispositionChunk chunk;
  chunk.request_id = 1;
  chunk.dispositions = lot.dispositions;
  std::vector<std::uint8_t> frame;
  report.add("net.encode_us_per_device",
             median_us(9, [&](std::size_t) {
               frame = net::encode_dispositions(chunk);
             }) / static_cast<double>(nd),
             "us");
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame).subspan(5);
  report.add("net.decode_us_per_device",
             median_us(9, [&](std::size_t) {
               net::decode_dispositions(payload);
             }) / static_cast<double>(nd),
             "us");

  // store + calibration publish: persist the current version, re-publish it.
  const sigtest::CalibrationVersion current = guarded.calibration();
  {
    std::filesystem::remove_all(in.scratch_dir);
    store::CalibrationStore cal_store(in.scratch_dir);
    const store::StoreKey key{"perfbench", "lna900", 25};
    report.add("store.put_ms", median_us(8, [&](std::size_t) {
                 cal_store.put(key, current.model, current.screen);
               }) / 1e3,
               "ms");
  }
  std::filesystem::remove_all(in.scratch_dir);
  report.add("sigtest.swap_us", median_us(32, [&](std::size_t) {
               in.runtime->guarded().swap_calibration(current.model,
                                                      current.screen);
             }), "us");

  // Stimulus search layers: the Eq. 10 objective and its pseudoinverse.
  std::unique_ptr<sigtest::PerturbationSet> built;
  const sigtest::PerturbationSet* perturbations = in.perturbations;
  if (perturbations == nullptr) {
    built = std::make_unique<sigtest::PerturbationSet>(
        sigtest::lna900_factory(), circuit::Lna900::nominal(), 0.05);
    perturbations = built.get();
  }
  report.add("sigtest.objective_ms", median_us(15, [&](std::size_t) {
               sigtest::evaluate_stimulus(*perturbations, acq, stimulus);
             }) / 1e3,
             "ms");
  const la::Matrix a_s = perturbations->signature_sensitivity(acq, stimulus);
  report.add("linalg.pinv_us",
             median_us(200, [&](std::size_t) { la::pinv(a_s); }), "us");
}

}  // namespace perfbench
