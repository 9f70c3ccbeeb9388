#include "workloads.hpp"

#include <sys/resource.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "core/telemetry.hpp"
#include "net/client.hpp"
#include "probes.hpp"
#include "rf/population.hpp"
#include "service/registry.hpp"
#include "service/scenario.hpp"
#include "service/server.hpp"
#include "sigtest/optimizer.hpp"
#include "store/calibration_store.hpp"

namespace perfbench {

namespace {

using namespace stf;
namespace telemetry = stf::core::telemetry;

/// Set-up is repeated -- at least kSetupReps times and for at least
/// kMinSetup_s, so a sub-millisecond set-up still gets many samples -- and
/// its median reported, so one slow repetition does not move setup_s.
constexpr std::size_t kSetupReps = 7;
constexpr double kMinSetup_s = 0.25;
constexpr double kSpread = 0.2;
constexpr std::size_t kCalibrationDevices = 100;
/// Span events the traced phase may buffer across all threads. Far below
/// the per-thread cap, so no thread's log can overflow and every aggregate
/// covers the whole phase.
constexpr std::size_t kTraceEventBudget = 400000;
/// Client threads of the open-loop generator; with the generator thread
/// itself the load generator stays within four threads.
constexpr std::size_t kClientThreads = 3;
/// Server lot workers of service_mixed, and the worker-pool size each lot
/// runs with. Two workers on one pool thread each keep the lot computation
/// at half the cores: with the pool at four, two concurrent lots ask for
/// eight threads and the latency measures the host's scheduler.
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kServicePoolThreads = 1;
/// Scenarios (populations) of service_mixed. Lot cost depends on how many
/// outlier devices a lot holds; many populations make the lot-cost mix,
/// and so the latency percentiles, nearly independent of the seed.
constexpr std::size_t kServiceScenarios = 8;
/// How often the generator thread re-publishes the calibration.
constexpr double kMaintenanceInterval_s = 0.25;
/// GA seeds of stimulus_search; golden_ga.txt holds one result per seed.
constexpr std::uint64_t kGaSeedPool = 16;

/// Per-layer metrics of layers only some workloads exercise; the others
/// report them as 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kDispositionMetrics[] = {
    {"sigtest.captures_per_device", "count"},
    {"sigtest.routed_frac", "ratio"},
    {"sigtest.retried_frac", "ratio"}};
constexpr LayerMetric kServiceMetrics[] = {
    {"net.attempts_per_lot", "count"},
    {"service.shed", "count"},
    {"service.replay_hits", "ratio"},
    {"service.population_misses", "count"},
    {"service.overhead_ms_p50", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.busy_frac", "ratio"}};
constexpr LayerMetric kSearchMetrics[] = {{"testgen.evaluations", "count"},
                                          {"testgen.evals_per_s", "evals/s"}};

template <std::size_t N>
void add_idle(const LayerMetric (&metrics)[N], Report& report) {
  for (const LayerMetric& m : metrics) report.add(m.name, 0.0, m.unit);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return stats::Rng(seed).derive(stream).seed();
}

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// The test cell every workload shares
// ---------------------------------------------------------------------------

/// A runtime with the service's canonical LNA recipe, uncalibrated.
std::shared_ptr<sigtest::BatchRuntime> make_runtime() {
  const auto o = service::RegistryOptions::lna_defaults();
  return std::make_shared<sigtest::BatchRuntime>(
      o.config, o.stimulus, o.spec_names, o.policy, o.batch, o.cal_options,
      o.max_signature_bins);
}

struct CellTimings {
  double population_ms = 0.0;
  double calibrate_ms = 0.0;
};

/// Characterize the fixed calibration population and calibrate `runtime`
/// on it. Returns the population (probe devices for stimulus_search).
std::vector<rf::DeviceRecord> calibrate(sigtest::BatchRuntime& runtime,
                                        CellTimings& timings) {
  const auto t0 = Clock::now();
  auto training = rf::make_lna_population(kCalibrationDevices, kSpread, 42);
  timings.population_ms = ms_since(t0);
  const auto t1 = Clock::now();
  stats::Rng rng(7);
  runtime.calibrate(training, rng);
  timings.calibrate_ms = ms_since(t1);
  return training;
}

std::vector<const rf::RfDut*> dut_pointers(
    const std::vector<rf::DeviceRecord>& population) {
  std::vector<const rf::RfDut*> out;
  out.reserve(population.size());
  for (const rf::DeviceRecord& d : population) out.push_back(d.dut.get());
  return out;
}

/// One distinct lot: devices, base seed, faults and the digest of its
/// serial reference dispositions.
struct Lot {
  std::vector<const rf::RfDut*> duts;
  std::uint64_t seed = 0;
  const rf::FaultInjector* faults = nullptr;
  std::uint64_t digest = 0;
};

/// Disposition tallies over the distinct lots of a workload.
struct Tally {
  double devices = 0.0;
  double captures = 0.0;
  double routed = 0.0;
  double retried = 0.0;

  void report(Report& r) const {
    r.add("sigtest.captures_per_device", captures / devices, "count");
    r.add("sigtest.routed_frac", routed / devices, "ratio");
    r.add("sigtest.retried_frac", retried / devices, "ratio");
  }
};

/// Record the digest of the lot's serial guarded reference -- device i
/// tested on the derived stream rng.derive(i) with fault sequence i, the
/// loop BatchRuntime::test_lot is specified against -- and tally it.
void set_reference(const sigtest::GuardedRuntime& guarded, Lot& lot,
                   Tally& tally) {
  std::vector<sigtest::TestDisposition> ref(lot.duts.size());
  const stats::Rng base(lot.seed);
  for (std::size_t i = 0; i < lot.duts.size(); ++i) {
    stats::Rng child = base.derive(i);
    ref[i] = guarded.test_device(*lot.duts[i], child, lot.faults, i);
  }
  lot.digest = disposition_digest(ref);
  for (const auto& d : ref) {
    tally.devices += 1.0;
    tally.captures += d.captures;
    tally.routed +=
        d.kind == sigtest::DispositionKind::kRoutedToConventional ? 1.0 : 0.0;
    tally.retried +=
        d.kind == sigtest::DispositionKind::kPredictedAfterRetry ? 1.0 : 0.0;
  }
}

// ---------------------------------------------------------------------------
// Measurement phases
// ---------------------------------------------------------------------------

/// Throughput blocks per phase: devices_per_s is the median of the block
/// rates, so a transient stall on a shared host moves one block, not the
/// metric.
constexpr std::size_t kRateBlocks = 15;
/// Latency blocks per phase, for the same reason (block_percentile).
constexpr std::size_t kLatencyBlocks = 5;

/// What one measured phase saw. A unit is a lot (or a search).
struct Phase {
  std::vector<double> latency_ms;  ///< Completed units only.
  std::vector<Completion> done;    ///< When each completed unit finished.
  std::uint64_t units = 0;         ///< Units attempted.
  std::uint64_t failed = 0;        ///< Shed, rejected, lost or not sent.
  std::uint64_t mismatches = 0;    ///< Results that differ from the reference.
  /// One block for an open loop, whose completions follow the schedule.
  std::size_t rate_blocks = kRateBlocks;

  /// Dispositions (or signatures) delivered per second.
  double devices_per_s() const { return median_block_rate(done, rate_blocks); }
};

/// Median seconds of `build`, one complete set-up, repeated as kSetupReps
/// and kMinSetup_s require; `teardown` (untimed) releases the previous
/// repetition first. The workload keeps the last repetition's products.
double median_setup_s(const std::function<void()>& teardown,
                      const std::function<void()>& build) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < kSetupReps || total < kMinSetup_s) {
    teardown();
    const auto t0 = Clock::now();
    build();
    samples.push_back(seconds_between(t0, Clock::now()));
    total += samples.back();
  }
  return median(samples);
}

RunResult end_to_end(const Phase& p, double setup_s) {
  RunResult out;
  Report& r = out.report;
  r.add("devices_per_s", p.devices_per_s(), "devices/s");
  r.add("lot_p50_ms", block_percentile(p.latency_ms, 50.0, kLatencyBlocks),
        "ms");
  r.add("lot_p90_ms", block_percentile(p.latency_ms, 90.0, kLatencyBlocks),
        "ms");
  if (percentile_reportable(99.0, p.latency_ms.size()))
    r.add("lot_p99_ms", percentile(p.latency_ms, 99.0), "ms");
  r.add("lots_measured", static_cast<double>(p.latency_ms.size()), "count");
  r.add("failed_frac",
        p.units != 0 ? static_cast<double>(p.failed) /
                           static_cast<double>(p.units)
                     : 0.0,
        "ratio");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.correct = p.mismatches == 0;
  out.attempted = p.units;
  out.failed = p.failed;
  return out;
}

/// Start a traced phase: clear the aggregates, turn collection on.
void begin_trace() {
  if (!telemetry::compiled())
    throw std::runtime_error("traced run needs SIGTEST_TELEMETRY=ON");
  telemetry::reset();
  telemetry::set_enabled(true);
}

bool trace_budget_spent() {
  return telemetry::span_event_count() >= kTraceEventBudget;
}

/// End a traced phase and report its core counters and tracing overhead.
/// Fails the run when any span event was dropped: past the per-thread cap
/// the aggregates are only a prefix sample.
void end_trace(const Phase& traced, const Phase& untraced, Report& r) {
  telemetry::set_enabled(false);
  if (telemetry::dropped_event_count() != 0)
    throw std::runtime_error("traced phase dropped span events");
  const double units =
      static_cast<double>(std::max<std::uint64_t>(traced.units, 1));
  r.add("core.backpressure_waits",
        static_cast<double>(
            telemetry::counter_value("pipeline.backpressure_waits")) /
            units,
        "count");
  r.add("core.heap_fallbacks",
        static_cast<double>(telemetry::counter_value("mem.heap_fallbacks")),
        "count");
  r.add("core.fft_plan_misses",
        static_cast<double>(telemetry::counter_value("fft.plan_cache_miss")),
        "count");
  r.add("trace.overhead_frac",
        1.0 - traced.devices_per_s() / untraced.devices_per_s(), "ratio");
}

/// Devices/s of `unit` (which returns the devices it handled) run `reps`
/// times on 4 worker threads, over the same on 1.
double scaling_1to4(const std::function<std::uint64_t()>& unit, int reps) {
  const std::size_t before = core::thread_count();
  const auto rate = [&](std::size_t threads) {
    core::set_thread_count(threads);
    unit();  // warm the new pool
    const auto t0 = Clock::now();
    std::uint64_t devices = 0;
    for (int i = 0; i < reps; ++i) devices += unit();
    return static_cast<double>(devices) / seconds_between(t0, Clock::now());
  };
  const double one = rate(1);
  const double four = rate(4);
  core::set_thread_count(before);
  return four / one;
}

/// The closed loop of the lot workloads: one caller, test_lot back to back,
/// cycling over the lots in a seeded order.
Phase run_lots(const sigtest::BatchRuntime& runtime,
               const std::vector<Lot>& lots, std::uint64_t order_seed,
               double seconds, bool traced) {
  stats::Rng order_rng(order_seed);
  const std::vector<std::size_t> order = order_rng.permutation(lots.size());
  Phase p;
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (seconds_between(start, Clock::now()) >= seconds) break;
    if (traced && trace_budget_spent()) break;
    const Lot& lot = lots[order[k % lots.size()]];
    const auto t0 = Clock::now();
    const sigtest::LotResult result =
        runtime.test_lot(lot.duts, stats::Rng(lot.seed), lot.faults);
    p.latency_ms.push_back(ms_since(t0));
    p.done.push_back({seconds_between(start, Clock::now()),
                      static_cast<double>(result.devices())});
    ++p.units;
    if (disposition_digest(result.dispositions) != lot.digest) ++p.mismatches;
  }
  return p;
}

std::uint64_t run_each_lot(const sigtest::BatchRuntime& runtime,
                           const std::vector<Lot>& lots,
                           std::uint64_t* mismatches) {
  std::uint64_t devices = 0;
  for (const Lot& lot : lots) {
    const auto result =
        runtime.test_lot(lot.duts, stats::Rng(lot.seed), lot.faults);
    devices += result.devices();
    if (mismatches != nullptr &&
        disposition_digest(result.dispositions) != lot.digest)
      ++*mismatches;
  }
  return devices;
}

}  // namespace

// ---------------------------------------------------------------------------
// lot_clean / lot_faulted
// ---------------------------------------------------------------------------

RunResult run_lot_workload(const RunOptions& opt, bool faulted) {
  // Many populations, few seeds each: the outlier devices that retry or
  // route on a clean lot, and the predicted few on a faulted one, average
  // over enough devices that the cost of a run barely depends on its seed.
  const std::size_t lot_size = faulted ? 64 : 240;
  const std::size_t n_populations = faulted ? 8 : 12;
  const std::size_t seeds_per_population = 2;
  const rf::FaultInjector faults =
      faulted ? rf::FaultInjector::parse(kFaultSpec) : rf::FaultInjector();

  std::shared_ptr<sigtest::BatchRuntime> runtime;
  std::vector<std::vector<rf::DeviceRecord>> populations;
  CellTimings timings;
  const double setup_s = median_setup_s(
      [&] {
        populations.clear();
        runtime.reset();
      },
      [&] {
        runtime = make_runtime();
        calibrate(*runtime, timings);
        for (std::size_t p = 0; p < n_populations; ++p)
          populations.push_back(rf::make_lna_population(
              lot_size, kSpread, derive_seed(opt.seed, p)));
      });

  std::vector<Lot> lots;
  Tally tally;
  for (std::size_t p = 0; p < n_populations; ++p) {
    for (std::size_t s = 0; s < seeds_per_population; ++s) {
      Lot lot;
      lot.duts = dut_pointers(populations[p]);
      lot.seed = derive_seed(opt.seed, 100 + p * seeds_per_population + s);
      lot.faults = faulted ? &faults : nullptr;
      set_reference(runtime->guarded(), lot, tally);
      lots.push_back(std::move(lot));
    }
  }

  // Warm-up: every lot once (FFT plans, arenas, the worker pool).
  std::uint64_t warm_mismatches = 0;
  run_each_lot(*runtime, lots, &warm_mismatches);

  Phase measured =
      run_lots(*runtime, lots, derive_seed(opt.seed, 1000), opt.seconds, false);
  measured.mismatches += warm_mismatches;
  RunResult out = end_to_end(measured, setup_s);
  if (!opt.trace) return out;

  Report& r = out.report;
  begin_trace();
  const Phase traced = run_lots(*runtime, lots, derive_seed(opt.seed, 2000),
                                opt.seconds / 2, true);
  end_trace(traced, measured, r);
  out.correct = out.correct && traced.mismatches == 0;
  tally.report(r);
  add_idle(kServiceMetrics, r);
  add_idle(kSearchMetrics, r);
  r.add("rf.make_population_ms", timings.population_ms, "ms");
  r.add("sigtest.calibrate_ms", timings.calibrate_ms, "ms");
  r.add("core.scaling_1to4",
        scaling_1to4([&] { return run_each_lot(*runtime, lots, nullptr); },
                     faulted ? 1 : 2),
        "ratio");
  ProbeInputs in;
  in.runtime = runtime.get();
  in.devices = lots.front().duts;
  in.faults = faulted ? &faults : nullptr;
  in.scratch_dir = opt.scratch_dir + "/probe-store";
  add_layer_probes(in, r);
  return out;
}

// ---------------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------------

namespace {

/// A distinct request of the open loop with the lot it must reproduce.
struct ServiceLot {
  Lot lot;
  net::LotRequest request;  ///< request_id is set per arrival.
};

/// The maintenance plane, run on the generator thread between sends: at a
/// fixed interval it persists the current calibration into a scratch store
/// and re-publishes the same model and screen, so every disposition stays
/// checkable against the reference.
class Maintenance {
 public:
  Maintenance(sigtest::BatchRuntime& runtime, const std::string& store_dir)
      : runtime_(runtime), store_(store_dir) {}

  void start(Clock::time_point now) {
    next_ = now + interval();
  }

  /// Sleep until `until`, running every tick that falls due before it.
  void wait_until(Clock::time_point until) {
    while (next_ < until) {
      std::this_thread::sleep_until(next_);
      tick();
      next_ += interval();
    }
    std::this_thread::sleep_until(until);
  }

 private:
  static Clock::duration interval() {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kMaintenanceInterval_s));
  }

  void tick() {
    const sigtest::CalibrationVersion current =
        runtime_.guarded().calibration();
    const std::uint64_t version =
        store_.put(key_, current.model, current.screen);
    store_.prune(key_, version);
    runtime_.guarded().swap_calibration(current.model, current.screen);
  }

  sigtest::BatchRuntime& runtime_;
  store::CalibrationStore store_;
  const store::StoreKey key_{"perfbench", "lna900", 25};
  Clock::time_point next_{};
};

/// What the open loop saw beyond the common phase numbers.
struct OpenLoopResult {
  Phase phase;
  std::vector<double> late_ms;           ///< Send time minus due time.
  std::vector<double> clean_latency_ms;  ///< Fresh clean lots only.
  double attempts_per_lot = 0.0;
  std::uint64_t busy = 0;     ///< Due requests that found every client busy.
  std::uint64_t shed = 0;     ///< Typed overload rejects.
  std::uint64_t replays = 0;  ///< Replay requests sent.
};

/// Offer `schedule` to the server on `port` as an open loop: each request is
/// due at its scheduled time whether or not earlier ones have finished, and
/// is timed from that due time. Each client thread claims the next arrival,
/// waits for its due time and sends it; an arrival claimed after it fell due
/// found every client busy. Requests still unsent once `cutoff_s` has passed
/// are dropped and count as failed, which bounds the run on an overloaded
/// server; a traced run stops claiming once the span budget is spent (the
/// rest are not attempted). Meanwhile this thread runs the maintenance plane.
OpenLoopResult open_loop(std::uint16_t port,
                         const std::vector<Arrival>& schedule,
                         const std::vector<ServiceLot>& clean,
                         const std::vector<ServiceLot>& faulted,
                         std::uint64_t id_base, double cutoff_s, bool traced,
                         Maintenance& maintenance) {
  const std::size_t n = schedule.size();
  // Resolve every arrival to its request and the lot it must reproduce.
  std::vector<const ServiceLot*> lot_of(n);
  std::vector<net::LotRequest> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule[i];
    const std::size_t origin = a.kind == RequestClass::kReplay ? a.pick : i;
    const Arrival& o = schedule[origin];
    lot_of[i] = o.kind == RequestClass::kFaulted ? &faulted[o.pick]
                                                 : &clean[o.pick];
    requests[i] = lot_of[i]->request;
    requests[i].request_id = id_base + origin + 1;
  }

  std::vector<char> claimed(n, 0);
  std::vector<char> busy(n, 0);
  std::vector<double> latency(n, 0.0);
  std::vector<double> late(n, 0.0);
  std::vector<double> done_s(n, 0.0);
  std::vector<int> attempts(n, 0);
  std::vector<net::ClientStatus> status(n,
                                        net::ClientStatus::kTransportFailure);
  std::vector<net::RejectCode> reject(n, net::RejectCode::kNone);
  std::vector<char> matched(n, 0);

  const net::SigtestClient client(port);
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].at_s));
  };
  std::atomic<std::size_t> next{0};
  const auto client_loop = [&] {
    for (;;) {
      if (traced && trace_budget_spent()) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      claimed[i] = 1;
      if (Clock::now() > due(i))
        busy[i] = 1;
      else
        std::this_thread::sleep_until(due(i));
      const auto sent = Clock::now();
      if (seconds_between(start, sent) > cutoff_s) continue;
      const net::ClientLotResult res = client.run_lot(requests[i]);
      const auto done = Clock::now();
      late[i] = seconds_between(due(i), sent) * 1e3;
      latency[i] = seconds_between(due(i), done) * 1e3;
      done_s[i] = seconds_between(start, done);
      attempts[i] = res.attempts;
      status[i] = res.status;
      reject[i] = res.reject_code;
      matched[i] =
          res.status == net::ClientStatus::kOk &&
          disposition_digest(res.dispositions) == lot_of[i]->lot.digest;
    }
  };
  {
    std::vector<std::jthread> clients;
    for (std::size_t t = 0; t < kClientThreads; ++t)
      clients.emplace_back(client_loop);
    maintenance.start(start);
    if (n != 0) maintenance.wait_until(due(n - 1));
  }  // joins the clients

  OpenLoopResult out;
  Phase& p = out.phase;
  p.rate_blocks = 1;
  double attempts_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!claimed[i]) continue;
    ++p.units;
    if (attempts[i] == 0) {  // dropped unsent past the cutoff
      ++p.failed;
      continue;
    }
    out.busy += busy[i] != 0 ? 1 : 0;
    out.late_ms.push_back(late[i]);
    attempts_sum += attempts[i];
    if (schedule[i].kind == RequestClass::kReplay) ++out.replays;
    if (status[i] != net::ClientStatus::kOk) {
      ++p.failed;
      if (reject[i] == net::RejectCode::kShedOverload) ++out.shed;
      continue;
    }
    p.latency_ms.push_back(latency[i]);
    if (schedule[i].kind == RequestClass::kClean)
      out.clean_latency_ms.push_back(latency[i]);
    p.done.push_back(
        {done_s[i], static_cast<double>(lot_of[i]->lot.duts.size())});
    if (!matched[i]) ++p.mismatches;
  }
  out.attempts_per_lot =
      out.late_ms.empty()
          ? 0.0
          : attempts_sum / static_cast<double>(out.late_ms.size());
  return out;
}

}  // namespace

RunResult run_service_mixed(const RunOptions& opt) {
  if (!(opt.rate_per_s > 0.0))
    throw std::invalid_argument("service_mixed needs an offered rate");
  const std::uint32_t lot_size = 64;
  const std::size_t clean_per_scenario = 4;
  const std::size_t faulted_per_scenario = 1;
  std::vector<std::string> scenarios;
  for (std::uint64_t s = 0; s < kServiceScenarios; ++s)
    scenarios.push_back("lna:spread=0.2:pop=" +
                        std::to_string(derive_seed(opt.seed, s) % 1000000));
  core::set_thread_count(kServicePoolThreads);
  service::ServerConfig config;
  config.worker_threads = kServiceWorkers;
  config.population_cache_entries = kServiceScenarios;
  std::printf("# service: workers=%zu pool_threads=%zu scenarios=%zu\n",
              kServiceWorkers, core::thread_count(), kServiceScenarios);

  std::shared_ptr<sigtest::BatchRuntime> runtime;
  std::unique_ptr<service::SigtestServer> server;
  CellTimings timings;
  const double setup_s = median_setup_s(
      [&] {
        server.reset();  // drains and joins the previous repetition's server
        runtime.reset();
      },
      [&] {
        runtime = make_runtime();
        calibrate(*runtime, timings);
        server = std::make_unique<service::SigtestServer>(runtime, config);
        server->start();
        // Warm-up: one clean and one faulted lot per scenario materializes
        // the server's populations and warms its plans, arenas and pools.
        const net::SigtestClient client(server->port());
        std::uint64_t id = std::uint64_t{1} << 62;
        for (const std::string& scenario : scenarios) {
          for (const char* fault_spec : {"", kFaultSpec}) {
            const net::LotRequest warm{++id, 1, lot_size, 16, scenario,
                                       fault_spec};
            if (client.run_lot(warm).status != net::ClientStatus::kOk)
              throw std::runtime_error("service warm-up lot failed");
          }
        }
      });

  const rf::FaultInjector faults = rf::FaultInjector::parse(kFaultSpec);
  std::vector<std::vector<rf::DeviceRecord>> populations;
  for (const std::string& scenario : scenarios)
    populations.push_back(service::build_population(
        service::parse_scenario(scenario), lot_size));
  std::vector<ServiceLot> clean;
  std::vector<ServiceLot> faulted;
  Tally tally;
  std::uint64_t stream = 100;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t k = 0; k < clean_per_scenario + faulted_per_scenario;
         ++k) {
      const bool is_faulted = k >= clean_per_scenario;
      ServiceLot sl;
      sl.lot.duts = dut_pointers(populations[s]);
      sl.lot.seed = derive_seed(opt.seed, stream++);
      sl.lot.faults = is_faulted ? &faults : nullptr;
      set_reference(runtime->guarded(), sl.lot, tally);
      sl.request = {0, sl.lot.seed, lot_size, 16, scenarios[s],
                    is_faulted ? kFaultSpec : ""};
      (is_faulted ? faulted : clean).push_back(std::move(sl));
    }
  }

  const std::string store_dir = opt.scratch_dir + "/maintenance-store";
  std::filesystem::remove_all(store_dir);
  Maintenance maintenance(*runtime, store_dir);
  const auto schedule =
      poisson_schedule(derive_seed(opt.seed, 3000), opt.rate_per_s,
                       opt.seconds, clean.size(), faulted.size());
  const OpenLoopResult measured =
      open_loop(server->port(), schedule, clean, faulted, 0,
                2.0 * opt.seconds, false, maintenance);
  RunResult out = end_to_end(measured.phase, setup_s);
  if (!opt.trace) {
    std::filesystem::remove_all(store_dir);
    return out;
  }

  Report& r = out.report;
  begin_trace();
  const auto traced_schedule =
      poisson_schedule(derive_seed(opt.seed, 4000), opt.rate_per_s,
                       opt.seconds / 2, clean.size(), faulted.size());
  const OpenLoopResult traced =
      open_loop(server->port(), traced_schedule, clean, faulted,
                std::uint64_t{1} << 40, 2.0 * opt.seconds, true, maintenance);
  end_trace(traced.phase, measured.phase, r);
  out.correct = out.correct && traced.phase.mismatches == 0;
  const double replays =
      static_cast<double>(std::max<std::uint64_t>(traced.replays, 1));
  r.add("service.replay_hits",
        static_cast<double>(telemetry::counter_value("svc.replays")) / replays,
        "ratio");
  r.add("service.population_misses",
        static_cast<double>(
            telemetry::counter_value("svc.population_cache_misses")),
        "count");
  std::filesystem::remove_all(store_dir);

  tally.report(r);
  add_idle(kSearchMetrics, r);
  r.add("net.attempts_per_lot", measured.attempts_per_lot, "count");
  r.add("service.shed", static_cast<double>(measured.shed), "count");
  r.add("loadgen.late_p99_ms", percentile(measured.late_ms, 99.0), "ms");
  r.add("loadgen.busy_frac",
        static_cast<double>(measured.busy) /
            static_cast<double>(
                std::max<std::uint64_t>(measured.phase.units, 1)),
        "ratio");
  // Service overhead: client latency of clean lots minus the in-process
  // test_lot time of the same lots at zero load.
  std::vector<Lot> clean_lots;
  for (const ServiceLot& sl : clean) clean_lots.push_back(sl.lot);
  std::vector<double> in_process_ms;
  for (const Lot& lot : clean_lots) {
    const auto t0 = Clock::now();
    runtime->test_lot(lot.duts, stats::Rng(lot.seed), lot.faults);
    in_process_ms.push_back(ms_since(t0));
  }
  r.add("service.overhead_ms_p50",
        median(measured.clean_latency_ms) - median(in_process_ms), "ms");
  r.add("rf.make_population_ms", timings.population_ms, "ms");
  r.add("sigtest.calibrate_ms", timings.calibrate_ms, "ms");
  r.add("core.scaling_1to4",
        scaling_1to4(
            [&] { return run_each_lot(*runtime, clean_lots, nullptr); }, 4),
        "ratio");
  server->stop();
  ProbeInputs in;
  in.runtime = runtime.get();
  in.devices = clean.front().lot.duts;
  in.faults = nullptr;
  in.scratch_dir = opt.scratch_dir + "/probe-store";
  add_layer_probes(in, r);
  return out;
}

// ---------------------------------------------------------------------------
// stimulus_search
// ---------------------------------------------------------------------------

namespace {

struct Golden {
  std::uint64_t evaluations = 0;
  std::uint64_t objective_bits = 0;
};

sigtest::StimulusOptimizerConfig search_config(
    const sigtest::SignatureTestConfig& cfg, std::uint64_t ga_seed) {
  sigtest::StimulusOptimizerConfig oc;
  oc.encoding.duration_s = cfg.capture_s;
  oc.ga.seed = ga_seed;  // every other GA option stays at its default
  return oc;
}

/// golden_ga.txt: one "<ga seed> <evaluations> <objective bits, hex>" line
/// per pool seed; '#' starts a comment.
std::map<std::uint64_t, Golden> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::map<std::uint64_t, Golden> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    Golden g;
    fields >> seed >> g.evaluations >> std::hex >> g.objective_bits;
    if (!fields) throw std::runtime_error("malformed golden line: " + line);
    out[seed] = g;
  }
  for (std::uint64_t s = 1; s <= kGaSeedPool; ++s)
    if (out.count(s) == 0)
      throw std::runtime_error("golden file lacks GA seed " +
                               std::to_string(s));
  return out;
}

struct SearchCell {
  std::unique_ptr<sigtest::PerturbationSet> perturbations;
  std::unique_ptr<sigtest::SignatureAcquirer> acquirer;
  sigtest::SignatureTestConfig config =
      sigtest::SignatureTestConfig::simulation_study();

  sigtest::OptimizedStimulus search(std::uint64_t ga_seed) const {
    return sigtest::optimize_stimulus(*perturbations, *acquirer,
                                      search_config(config, ga_seed));
  }
};

SearchCell make_search_cell() {
  SearchCell cell;
  cell.perturbations = std::make_unique<sigtest::PerturbationSet>(
      sigtest::lna900_factory(), circuit::Lna900::nominal(), 0.05);
  cell.acquirer = std::make_unique<sigtest::SignatureAcquirer>(
      cell.config, service::RegistryOptions::lna_defaults().max_signature_bins);
  return cell;
}

}  // namespace

void write_stimulus_golden(const RunOptions& opt) {
  const SearchCell cell = make_search_cell();
  std::ofstream out(opt.golden_path);
  if (!out) throw std::runtime_error("cannot write " + opt.golden_path);
  out << "# stimulus_search golden results: GA seed, objective evaluations,\n"
         "# best objective as IEEE-754 bits (hex). Regenerate with\n"
         "# run.py --write-golden; a change that moves any line changed the\n"
         "# search's results, not just its speed.\n";
  for (std::uint64_t s = 1; s <= kGaSeedPool; ++s) {
    const auto r = cell.search(s);
    char line[80];
    std::snprintf(line, sizeof line, "%llu %llu %016llx\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(r.evaluations),
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(r.objective)));
    out << line;
  }
}

RunResult run_stimulus_search(const RunOptions& opt) {
  const auto golden = read_golden(opt.golden_path);
  // Set-up is the perturbation set and acquirer plus one warm-up search
  // (plans, rendering, the worker pool), as the service's includes its
  // warm-up lots.
  SearchCell cell;
  sigtest::OptimizedStimulus warm;
  const double setup_s = median_setup_s([&] { cell = SearchCell(); },
                                        [&] {
                                          cell = make_search_cell();
                                          warm = cell.search(1);
                                        });
  const std::uint64_t signatures_per_eval = 2 * cell.perturbations->n_params();

  // One search per pool seed, in a seeded order; each is checked against
  // its golden evaluation count and objective bit pattern.
  const auto run_searches = [&](std::uint64_t order_seed, double seconds,
                                bool traced) {
    stats::Rng order_rng(order_seed);
    const auto order = order_rng.permutation(kGaSeedPool);
    Phase p;
    const auto start = Clock::now();
    for (std::size_t k = 0;; ++k) {
      if (seconds_between(start, Clock::now()) >= seconds) break;
      if (traced && trace_budget_spent()) break;
      const std::uint64_t ga_seed = order[k % kGaSeedPool] + 1;
      const auto t0 = Clock::now();
      const auto result = cell.search(ga_seed);
      p.latency_ms.push_back(ms_since(t0));
      p.done.push_back({seconds_between(start, Clock::now()),
                        static_cast<double>(result.evaluations *
                                            signatures_per_eval)});
      ++p.units;
      const Golden& g = golden.at(ga_seed);
      if (result.evaluations != g.evaluations ||
          std::bit_cast<std::uint64_t>(result.objective) != g.objective_bits)
        ++p.mismatches;
    }
    return p;
  };

  Phase measured =
      run_searches(derive_seed(opt.seed, 1000), opt.seconds, false);
  if (warm.evaluations != golden.at(1).evaluations ||
      std::bit_cast<std::uint64_t>(warm.objective) !=
          golden.at(1).objective_bits)
    ++measured.mismatches;
  const double evals_per_s = measured.devices_per_s() /
                             static_cast<double>(signatures_per_eval);
  RunResult out = end_to_end(measured, setup_s);
  out.report.add("evals_per_s", evals_per_s, "evals/s");
  if (!opt.trace) return out;

  Report& r = out.report;
  begin_trace();
  const Phase traced =
      run_searches(derive_seed(opt.seed, 2000), opt.seconds / 2, true);
  end_trace(traced, measured, r);
  out.correct = out.correct && traced.mismatches == 0;
  r.add("testgen.evaluations",
        static_cast<double>(golden.at(1).evaluations), "count");
  r.add("testgen.evals_per_s", evals_per_s, "evals/s");
  add_idle(kDispositionMetrics, r);
  add_idle(kServiceMetrics, r);
  r.add("core.scaling_1to4", scaling_1to4([&] {
          return cell.search(1).evaluations * signatures_per_eval;
        }, 2),
        "ratio");

  // The layer probes need a calibrated runtime; building it is also where
  // this workload measures population and calibration cost.
  const auto runtime = make_runtime();
  CellTimings timings;
  const auto training = calibrate(*runtime, timings);
  r.add("rf.make_population_ms", timings.population_ms, "ms");
  r.add("sigtest.calibrate_ms", timings.calibrate_ms, "ms");
  ProbeInputs in;
  in.runtime = runtime.get();
  in.devices = dut_pointers(training);
  in.devices.resize(32);
  in.perturbations = cell.perturbations.get();
  in.scratch_dir = opt.scratch_dir + "/probe-store";
  add_layer_probes(in, r);
  return out;
}

}  // namespace perfbench
