// Google-benchmark microbenchmarks for the framework's hot kernels: they
// substantiate the runtime claims (a signature evaluation must fit in the
// paper's "negligible time for ... computation of the FFT" budget) and
// guard against performance regressions.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/lna900.hpp"
#include "net/frame.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "dsp/iir.hpp"
#include "linalg/matrix.hpp"
#include "rf/dut.hpp"
#include "rf/faults.hpp"
#include "rf/population.hpp"
#include "sigtest/acquisition.hpp"
#include "sigtest/calibration.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"
#include "store/calibration_store.hpp"

namespace {

using namespace stf;

// Scoped telemetry collection for one benchmark: enables the layer for the
// timed loop and, on destruction, publishes the named counter deltas as
// per-iteration google-benchmark counters (so bench_report.py can embed
// them in BENCH_*.json). No-op when built with SIGTEST_TELEMETRY=OFF.
class TelemetryCounters {
 public:
  TelemetryCounters(benchmark::State& state,
                    std::initializer_list<const char*> names)
      : state_(state), names_(names) {
    if (!core::telemetry::compiled()) return;
    core::telemetry::set_enabled(true);
    start_.reserve(names_.size());
    for (const char* n : names_)
      start_.push_back(core::telemetry::counter_value(n));
  }

  TelemetryCounters(const TelemetryCounters&) = delete;
  TelemetryCounters& operator=(const TelemetryCounters&) = delete;

  ~TelemetryCounters() {
    if (!core::telemetry::compiled()) return;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const std::uint64_t delta =
          core::telemetry::counter_value(names_[i]) - start_[i];
      state_.counters[names_[i]] = benchmark::Counter(
          static_cast<double>(delta), benchmark::Counter::kAvgIterations);
    }
    core::telemetry::set_enabled(false);
  }

 private:
  benchmark::State& state_;
  std::vector<const char*> names_;
  std::vector<std::uint64_t> start_;
};

// Cached transforms reuse the process-wide plan (twiddles, bit-reversal,
// Bluestein chirp/kernel spectra); the *_Uncached variants drop the cache
// every iteration to price the cold path the seed code paid on every call.
// The cached/uncached ratio is the plan cache's speedup on repeated
// same-size transforms.
void BM_Fft1024(benchmark::State& state) {
  stats::Rng rng(1);
  std::vector<dsp::cplx> x(1024);
  for (auto& v : x) v = dsp::cplx(rng.normal(), rng.normal());
  dsp::fft_plan_cache_clear();
  const TelemetryCounters counters(
      state, {"fft.plan_cache_hit", "fft.plan_cache_miss"});
  for (auto _ : state) benchmark::DoNotOptimize(dsp::fft(x));
}
BENCHMARK(BM_Fft1024);

void BM_Fft1024Uncached(benchmark::State& state) {
  stats::Rng rng(1);
  std::vector<dsp::cplx> x(1024);
  for (auto& v : x) v = dsp::cplx(rng.normal(), rng.normal());
  const TelemetryCounters counters(
      state, {"fft.plan_cache_hit", "fft.plan_cache_miss"});
  for (auto _ : state) {
    dsp::fft_plan_cache_clear();
    benchmark::DoNotOptimize(dsp::fft(x));
  }
}
BENCHMARK(BM_Fft1024Uncached);

void BM_FftBluestein1000(benchmark::State& state) {
  stats::Rng rng(1);
  std::vector<dsp::cplx> x(1000);
  for (auto& v : x) v = dsp::cplx(rng.normal(), rng.normal());
  dsp::fft_plan_cache_clear();
  const TelemetryCounters counters(
      state, {"fft.plan_cache_hit", "fft.plan_cache_miss"});
  for (auto _ : state) benchmark::DoNotOptimize(dsp::fft(x));
}
BENCHMARK(BM_FftBluestein1000);

void BM_FftBluestein1000Uncached(benchmark::State& state) {
  stats::Rng rng(1);
  std::vector<dsp::cplx> x(1000);
  for (auto& v : x) v = dsp::cplx(rng.normal(), rng.normal());
  const TelemetryCounters counters(
      state, {"fft.plan_cache_hit", "fft.plan_cache_miss"});
  for (auto _ : state) {
    dsp::fft_plan_cache_clear();
    benchmark::DoNotOptimize(dsp::fft(x));
  }
}
BENCHMARK(BM_FftBluestein1000Uncached);

void BM_LnaDcSolve(benchmark::State& state) {
  const auto nl = circuit::Lna900::build(circuit::Lna900::nominal());
  for (auto _ : state) benchmark::DoNotOptimize(circuit::solve_dc(nl));
}
BENCHMARK(BM_LnaDcSolve);

void BM_LnaFullCharacterization(benchmark::State& state) {
  const auto process = circuit::Lna900::nominal();
  for (auto _ : state)
    benchmark::DoNotOptimize(circuit::Lna900::measure(process));
}
BENCHMARK(BM_LnaFullCharacterization);

void BM_BehavioralExtraction(benchmark::State& state) {
  const auto process = circuit::Lna900::nominal();
  for (auto _ : state)
    benchmark::DoNotOptimize(rf::extract_lna_dut(process));
}
BENCHMARK(BM_BehavioralExtraction);

void BM_SignatureAcquisition(benchmark::State& state) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::SignatureAcquirer acq(cfg, 16);
  const auto ch = rf::extract_lna_dut(circuit::Lna900::nominal());
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
  stats::Rng rng(3);
  const TelemetryCounters counters(
      state, {"fft.transforms", "fft.plan_cache_hit", "fft.plan_cache_miss"});
  for (auto _ : state)
    benchmark::DoNotOptimize(acq.acquire(*ch.dut, stim, &rng));
}
BENCHMARK(BM_SignatureAcquisition);

// Sixteen devices that share one stimulus, captured the way the lot engine
// and the GA objective capture them. Arg 0 picks the path: 0 is sixteen
// per-device raw_capture_into calls, 1 one raw_capture_lanes call, whose
// board stages run one device per vector lane. Arg 1 picks noiseless (0,
// the GA's perturbed devices) or noisy (1, a production lot, each device on
// its own stream). Both paths produce the same captures bitwise.
void BM_CaptureLanes(benchmark::State& state) {
  const bool lanes = state.range(0) != 0;
  const bool noisy = state.range(1) != 0;
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acq(cfg, 16);
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
  const auto devices = rf::make_lna_population(16, 0.2, 5);
  std::vector<const rf::RfDut*> duts;
  std::vector<stats::Rng> rngs;
  std::vector<stats::Rng*> streams;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    duts.push_back(devices[i].dut.get());
    rngs.push_back(stats::Rng(100).derive(i));
  }
  for (stats::Rng& r : rngs) streams.push_back(noisy ? &r : nullptr);
  const std::size_t n_cap = acq.capture_length();
  std::vector<double> captures(duts.size() * n_cap);
  for (auto _ : state) {
    if (lanes) {
      acq.raw_capture_lanes(duts, stim, streams, captures);
    } else {
      for (std::size_t i = 0; i < duts.size(); ++i)
        acq.raw_capture_into(*duts[i], stim, streams[i],
                             std::span<double>(captures).subspan(i * n_cap,
                                                                 n_cap));
    }
    benchmark::DoNotOptimize(captures.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(duts.size()));
}
BENCHMARK(BM_CaptureLanes)->ArgsProduct({{0, 1}, {0, 1}});

// One capture's measurement noise: 903 draws, the LNA's 802 (re and im of
// 401 samples) plus the digitizer's 101. Arg 0 is the per-call
// `x += normal(0.0, sigma)` loop, Arg 1 the bulk add_normal the capture path
// uses; both produce the same values bitwise.
void BM_NormalNoise(benchmark::State& state) {
  const bool bulk = state.range(0) != 0;
  stats::Rng rng(17);
  std::vector<double> x(903, 0.0);
  for (auto _ : state) {
    if (bulk) {
      rng.add_normal(x, 1e-3);
    } else {
      for (double& v : x) v += rng.normal(0.0, 1e-3);
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_NormalNoise)->Arg(0)->Arg(1);

// Setting up one lane block's streams: sixteen children derived from a lot
// seed, then seeded. Arg 0 seeds them one at a time, each engine's 312-step
// recurrence alone as at its first draw; Arg 1 seeds them four recurrences
// at a time, as test_devices does. Both leave the same engine states.
void BM_SeedStreams(benchmark::State& state) {
  const bool grouped = state.range(0) != 0;
  const stats::Rng lot(100);
  constexpr std::size_t kChildren = 16;
  std::vector<stats::Rng> children;
  children.reserve(kChildren);
  for (auto _ : state) {
    children.clear();
    for (std::size_t i = 0; i < kChildren; ++i)
      children.push_back(lot.derive(i));
    if (grouped) {
      stats::Rng::seed_pending(children);
    } else {
      for (stats::Rng& child : children) stats::Rng::seed_pending({&child, 1});
    }
    benchmark::DoNotOptimize(children.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChildren));
}
BENCHMARK(BM_SeedStreams)->Arg(0)->Arg(1);

// Butterworth cascade over interleaved channels: the SIMD biquad kernel's
// home turf. Arg is the channel count -- 1 is the scalar recurrence floor,
// lane-multiple widths run fully vectorized, and the interleaved/scalar
// time-per-sample ratio is the kernel's effective lane utilization.
void BM_BiquadCascade(benchmark::State& state) {
  const auto cascade = dsp::butterworth_lowpass(4, 10e6, 200e6);
  const auto n_channels = static_cast<std::size_t>(state.range(0));
  const std::size_t n_samples = 4096;
  stats::Rng rng(11);
  std::vector<double> x(n_samples * n_channels);
  for (auto& v : x) v = rng.normal();
  std::vector<double> work(x.size());
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), work.begin());
    cascade.filter_interleaved(work, n_channels);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_BiquadCascade)->Arg(1)->Arg(4)->Arg(8);

// Register-blocked batch GEMV (CalibrationModel::predict_batch) over 32 and
// 240 rows; the per-device cost here is the floor BM_CalibrationPredict's
// one-at-a-time path is compared against.
void BM_PredictBatchGemv(benchmark::State& state) {
  stats::Rng rng(5);
  const std::size_t n = 100, m = 16, n_specs = 3;
  la::Matrix sig(n, m), specs(n, n_specs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    for (std::size_t s = 0; s < n_specs; ++s) specs(i, s) = rng.normal();
  }
  sigtest::CalibrationModel model;
  model.fit(sig, specs);
  const auto batch = static_cast<std::size_t>(state.range(0));
  la::Matrix queries(batch, m);
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t j = 0; j < m; ++j) queries(i, j) = rng.uniform(0.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.predict_batch(queries));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictBatchGemv)->Arg(32)->Arg(240);

void BM_CalibrationPredict(benchmark::State& state) {
  // Regression evaluation is the per-part production cost.
  stats::Rng rng(5);
  const std::size_t n = 100, m = 16;
  la::Matrix sig(n, m), specs(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    for (std::size_t s = 0; s < 3; ++s) specs(i, s) = rng.normal();
  }
  sigtest::CalibrationModel model;
  model.fit(sig, specs);
  std::vector<double> one(m);
  for (auto& v : one) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(model.predict(one));
}
BENCHMARK(BM_CalibrationPredict);

// One full capture+signature per iteration, both memory disciplines. Arg 0
// is the legacy heap path (raw_capture -> signature_from_capture, fresh
// vectors per part); Arg 1 is the production path (raw_capture_into ->
// signature_into against caller storage, internal scratch on the capture
// arena). The published mem.* counters prove the arena path stays off the
// heap; the time ratio is what that discipline is worth per part.
void BM_ArenaVsHeapCapture(benchmark::State& state) {
  const auto cfg = sigtest::SignatureTestConfig::simulation_study();
  sigtest::SignatureAcquirer acq(cfg, 16);
  const auto ch = rf::extract_lna_dut(circuit::Lna900::nominal());
  const auto stim = dsp::PwlWaveform::uniform(
      cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
  stats::Rng rng(13);
  const bool arena_path = state.range(0) != 0;
  std::vector<double> capture(acq.capture_length());
  std::vector<double> sig(acq.signature_length());
  const TelemetryCounters counters(
      state, {"mem.arena_bytes", "mem.heap_fallbacks"});
  for (auto _ : state) {
    if (arena_path) {
      acq.raw_capture_into(*ch.dut, stim, &rng, capture);
      acq.signature_into(capture, sig);
      benchmark::DoNotOptimize(sig.data());
    } else {
      const auto heap_capture = acq.raw_capture(*ch.dut, stim, &rng);
      benchmark::DoNotOptimize(acq.signature_from_capture(heap_capture));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ArenaVsHeapCapture)->Arg(0)->Arg(1);

void BM_CalibrationFit(benchmark::State& state) {
  // Training-time cost: the per-spec ridge solves fan out over the pool.
  stats::Rng rng(7);
  const std::size_t n = 100, m = 32, n_specs = 6;
  la::Matrix sig(n, m), specs(n, n_specs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) sig(i, j) = rng.uniform(0.0, 1.0);
    for (std::size_t s = 0; s < n_specs; ++s) specs(i, s) = rng.normal();
  }
  sigtest::CalibrationOptions opts;
  opts.poly_degree = 2;
  for (auto _ : state) {
    sigtest::CalibrationModel model(opts);
    model.fit(sig, specs);
    benchmark::DoNotOptimize(model.fitted());
  }
}
BENCHMARK(BM_CalibrationFit)->Unit(benchmark::kMillisecond)->UseRealTime();

// Calibrated test cell shared by the guard benchmarks; built on first use
// (calibration measures 40 devices) so filtered runs never pay for it.
const sigtest::TestCell& guarded_runtime() {
  static const sigtest::TestCell runtime = [] {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    const auto stim = dsp::PwlWaveform::uniform(
        cfg.capture_s, {0.0, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0});
    sigtest::GuardPolicy policy;
    policy.outlier_threshold = 2.5;
    sigtest::TestCell r(cfg, stim, circuit::LnaSpecs::names(), policy);
    const auto cal = rf::make_lna_population(40, 0.2, 21);
    stats::Rng rng(7);
    r.calibrate(cal, rng);
    return r;
  }();
  return runtime;
}

// Guarded production test on a clean chain: prices the validation pipeline
// (finiteness firewall + railing detector + outlier screen) on top of the
// raw acquisition cost -- this is the per-part overhead a production flow
// pays for escape protection when nothing is wrong.
void BM_GuardedTestDevice(benchmark::State& state) {
  const auto& runtime = guarded_runtime();
  const auto ch = rf::extract_lna_dut(circuit::Lna900::nominal());
  stats::Rng rng(9);
  const TelemetryCounters counters(
      state, {"guard.retries", "guard.escalations", "guard.routed"});
  for (auto _ : state)
    benchmark::DoNotOptimize(runtime.test_device(*ch.dut, rng));
}
BENCHMARK(BM_GuardedTestDevice);

// The same test through a moderately degraded chain (intermittent contact
// impulses): some captures fail validation and trigger retries with
// escalating averaging, so this prices the guard when it is earning its
// keep. The published guard.* counters show the retry activity per part.
void BM_GuardedTestDeviceFaulted(benchmark::State& state) {
  const auto& runtime = guarded_runtime();
  const auto ch = rf::extract_lna_dut(circuit::Lna900::nominal());
  const rf::FaultInjector faults{{rf::FaultSpec::contact_noise(0.01, 0.05)}};
  stats::Rng rng(9);
  std::uint64_t seq = 0;
  const TelemetryCounters counters(
      state, {"guard.retries", "guard.escalations", "guard.routed"});
  for (auto _ : state)
    benchmark::DoNotOptimize(runtime.test_device(*ch.dut, rng, &faults, seq++));
}
BENCHMARK(BM_GuardedTestDeviceFaulted);

// Cached store get: what the multi-runtime registry pays to resolve a
// scenario's calibration when the (key, version) pair is hot. This must be
// pointer-shuffling cheap -- a disk read here would put filesystem latency
// on the lot-dispatch path.
void BM_StoreGetCached(benchmark::State& state) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("stf_bench_store_" + std::to_string(::getpid())))
          .string();
  store::CalibrationStore cal_store(root);
  store::StoreKey key{"bench:lna"};
  const auto cal = guarded_runtime().calibration();
  cal_store.put(key, cal.model, cal.screen);
  const TelemetryCounters counters(
      state, {"store.cache_hits", "store.loads"});
  for (auto _ : state)
    benchmark::DoNotOptimize(cal_store.get(key));
  std::filesystem::remove_all(root);
}
BENCHMARK(BM_StoreGetCached);

// RCU-style calibration hot-swap: the publish step of online
// recalibration. Prices the version bump the pipeline pays while lots keep
// streaming -- dimension validation plus a locked pointer swap, no refit
// and no disk I/O (persistence is the Recalibrator's separate step).
void BM_CalibrationSwap(benchmark::State& state) {
  sigtest::TestCell runtime(guarded_runtime());
  const auto cal = runtime.calibration();
  const TelemetryCounters counters(state, {"guard.calibration_swaps"});
  for (auto _ : state)
    benchmark::DoNotOptimize(runtime.swap_calibration(cal.model, cal.screen));
}
BENCHMARK(BM_CalibrationSwap);

// The one-time LNA900 perturbation study (21 circuit characterizations)
// shared by the GA benchmarks below. Built on first use so binaries that
// filter these benchmarks out never pay for it.
const sigtest::PerturbationSet& lna_perturbation_set() {
  static const sigtest::PerturbationSet perturb(
      sigtest::lna900_factory(), circuit::Lna900::nominal(), 0.05);
  return perturb;
}

sigtest::StimulusOptimizerConfig small_ga_config(std::size_t generations) {
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.n_breakpoints = 8;
  oc.encoding.duration_s = config.capture_s;
  oc.encoding.v_min = -0.45;
  oc.encoding.v_max = 0.45;
  oc.ga.population = 8;
  oc.ga.generations = generations;
  oc.ga.seed = 5;
  return oc;
}

void BM_GaGeneration(benchmark::State& state) {
  // One GA generation end-to-end on the LNA900 study: init population plus
  // one breeding/evaluation round, every objective evaluation acquiring a
  // full perturbation set of signatures.
  const auto& perturb = lna_perturbation_set();
  const sigtest::SignatureAcquirer acquirer(
      sigtest::SignatureTestConfig::simulation_study(), 16);
  const auto oc = small_ga_config(1);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sigtest::optimize_stimulus(perturb, acquirer, oc));
}
BENCHMARK(BM_GaGeneration)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OptimizeStimulusThreads(benchmark::State& state) {
  // Thread-scaling of the full optimize_stimulus hot path; Arg is the
  // worker count. The 8-vs-1 wall-clock ratio is the headline speedup
  // tracked in BENCH_*.json (meaningful on a machine with >= 8 cores).
  const auto& perturb = lna_perturbation_set();
  const sigtest::SignatureAcquirer acquirer(
      sigtest::SignatureTestConfig::simulation_study(), 16);
  const auto oc = small_ga_config(2);
  core::set_thread_count(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sigtest::optimize_stimulus(perturb, acquirer, oc));
  core::set_thread_count(0);
}
BENCHMARK(BM_OptimizeStimulusThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// A full 64-device disposition chunk on the service wire path: encode
// must stay far under one device test (~us against the 5 us acquisition),
// or streaming would gate production throughput.
void BM_FrameEncodeDispositions(benchmark::State& state) {
  net::DispositionChunk chunk;
  chunk.request_id = 1;
  chunk.first_index = 0;
  for (int i = 0; i < 64; ++i) {
    sigtest::TestDisposition d;
    d.kind = sigtest::DispositionKind::kPredicted;
    d.attempts = 1;
    d.captures = 1;
    d.outlier_score = 0.25 * i;
    d.predicted = {14.5, 2.1, -9.0, 0.5};
    chunk.dispositions.push_back(d);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(net::encode_dispositions(chunk));
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameEncodeDispositions);

// The matching hardened decode: every length re-validated against the
// parser ceilings, so this bounds the server's per-chunk parse cost too.
void BM_FrameDecodeDispositions(benchmark::State& state) {
  net::DispositionChunk chunk;
  chunk.request_id = 1;
  chunk.first_index = 0;
  for (int i = 0; i < 64; ++i) {
    sigtest::TestDisposition d;
    d.kind = sigtest::DispositionKind::kPredicted;
    d.attempts = 1;
    d.captures = 1;
    d.outlier_score = 0.25 * i;
    d.predicted = {14.5, 2.1, -9.0, 0.5};
    chunk.dispositions.push_back(d);
  }
  const auto frame = net::encode_dispositions(chunk);
  const std::span<const std::uint8_t> payload(frame.data() + 5,
                                              frame.size() - 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(net::decode_dispositions(payload));
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameDecodeDispositions);

// Overhead of one span with collection active: a timestamp pair plus an
// event append (the per-thread log caps at ~1M events; past the cap the
// cost drops to the check itself, which only lowers the average).
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  core::telemetry::reset();
  core::telemetry::set_enabled(true);
  for (auto _ : state) {
    STF_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  core::telemetry::set_enabled(false);
  core::telemetry::reset();
}
BENCHMARK(BM_TelemetrySpanEnabled);

// Overhead of the same span with collection off: the acceptance criterion
// is that this is one relaxed atomic load, i.e. within noise of free.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  core::telemetry::set_enabled(false);
  for (auto _ : state) {
    STF_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

}  // namespace

BENCHMARK_MAIN();
