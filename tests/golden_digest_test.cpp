// Golden digests of the lot engine, the validation report, the unguarded
// baseline, the GA's sensitivity matrix and the GA's search results, and
// the exact work one golden search does.
//
// The lot checks elsewhere compare test_lot with the serial test_device
// loop of the same build, so a drift that moves both together passes them.
// These constants pin the outputs themselves: an FNV-1a hash over every
// disposition field of a 64-device clean lot and a 64-device faulted lot,
// over validate()'s scatter and metrics on the same 64 devices, over the
// unguarded baseline's predictions on the faulted lot, over the bit
// patterns of signature_sensitivity for two stimuli, and the evaluation
// count and best objective bits of three stimulus searches.
// Every lot entry point must land on the same constant, at any batch size
// and STF_THREADS, with SIMD on or off and in every SIMD backend -- and so
// must the same lots served by a SigtestServer over loopback and decoded by
// a SigtestClient.
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/lna900.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "core/telemetry.hpp"
#include "dsp/fft.hpp"
#include "dsp/pwl.hpp"
#include "linalg/pinv_lanes.hpp"
#include "net/client.hpp"
#include "rf/faults.hpp"
#include "rf/loadboard.hpp"
#include "rf/population.hpp"
#include "service/registry.hpp"
#include "service/server.hpp"
#include "sigtest/cell.hpp"
#include "sigtest/optimizer.hpp"
#include "sigtest/sensitivity.hpp"
#include "stats/rng.hpp"

namespace {

using namespace stf;

/// FNV-1a, one byte at a time.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Kind, attempts, captures, predicted (length and bits), the outlier
/// score's bits and last_flaw of every disposition, in lot order.
std::uint64_t digest(std::span<const sigtest::TestDisposition> lot) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(lot.size()));
  for (const sigtest::TestDisposition& d : lot) {
    h.add(static_cast<std::int64_t>(d.kind));
    h.add(static_cast<std::int64_t>(d.attempts));
    h.add(static_cast<std::int64_t>(d.captures));
    h.add(static_cast<std::uint64_t>(d.predicted.size()));
    for (const double p : d.predicted) h.add(p);
    h.add(d.outlier_score);
    h.add(static_cast<std::int64_t>(d.last_flaw));
  }
  return h.value();
}

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

struct SimdGuard {
  ~SimdGuard() { core::simd::clear_enabled_override(); }
};

constexpr std::uint64_t kLotSeed = 20260817;
constexpr const char* kFaultSpec = "clip:0.12,contact:0.02:0.05";
// The server rebuilds a lot from this string: make_lna_population(64, 0.2,
// 4242), the devices Cell tests in process.
constexpr const char* kScenario = "lna:spread=0.2:pop=4242";

constexpr std::uint64_t kCleanLotDigest = 0xC08D960D59328B63ULL;
constexpr std::uint64_t kFaultedLotDigest = 0xBEEDFBFFD3FAE43BULL;
constexpr std::uint64_t kValidationDigest = 0xE962D863888D434EULL;
constexpr std::uint64_t kUnguardedFaultedDigest = 0x16B3701DA4E26FE9ULL;
constexpr std::uint64_t kSensitivityDigestA = 0x55CE7C3B579F855FULL;
constexpr std::uint64_t kSensitivityDigestB = 0x6F03C4941178E471ULL;

struct Cell {
  // Shared so a SigtestServer can serve lots from the same calibration.
  std::shared_ptr<sigtest::TestCell> shared;
  sigtest::TestCell& runtime;
  // The unguarded baseline on runtime's calibration.
  sigtest::TestCell unguarded;
  std::vector<const rf::RfDut*> lot;
  std::vector<rf::DeviceRecord> devices;

  Cell()
      : shared(std::make_shared<sigtest::TestCell>(
            sigtest::SignatureTestConfig::simulation_study(), stimulus(),
            circuit::LnaSpecs::names())),
        runtime(*shared),
        unguarded(sigtest::SignatureTestConfig::simulation_study(),
                  stimulus(), circuit::LnaSpecs::names(),
                  sigtest::GuardPolicy::unguarded()),
        devices(rf::make_lna_population(64, 0.2, 4242)) {
    const auto cal = rf::make_lna_population(40, 0.2, 4141);
    stats::Rng cal_rng(11);
    runtime.calibrate(cal, cal_rng);
    unguarded.swap_calibration(runtime.model(), runtime.screen());
    for (const rf::DeviceRecord& d : devices) lot.push_back(d.dut.get());
  }

  static dsp::PwlWaveform stimulus() {
    const auto cfg = sigtest::SignatureTestConfig::simulation_study();
    return dsp::PwlWaveform::uniform(
        cfg.capture_s, {0.0, 0.25, -0.2, 0.15, -0.1, 0.2, 0.05, -0.15, 0.1});
  }
};

const Cell& cell() {
  static const Cell c;
  return c;
}

void expect_lot_digest(const rf::FaultInjector* faults, std::uint64_t want) {
  SimdGuard simd_guard;
  const Cell& c = cell();
  for (const bool simd_on : {true, false}) {
    core::simd::set_enabled(simd_on);
    EXPECT_EQ(digest(sigtest::serial_reference(c.runtime, c.lot,
                                               stats::Rng(kLotSeed), faults)),
              want)
        << "serial reference, simd " << simd_on;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadCountGuard guard(threads);
      for (const std::size_t batch : {1, 5, 16}) {
        const sigtest::LotResult r =
            c.runtime.test_lot(c.lot, stats::Rng(kLotSeed), faults, 0,
                               sigtest::BatchOptions{batch});
        EXPECT_EQ(digest(r.dispositions), want)
            << "test_lot, threads " << threads << ", batch " << batch
            << ", simd " << simd_on;
      }
    }
  }
}

TEST(GoldenLotDigest, CleanLot) { expect_lot_digest(nullptr, kCleanLotDigest); }

TEST(GoldenLotDigest, FaultedLot) {
  const rf::FaultInjector faults = rf::FaultInjector::parse(kFaultSpec);
  expect_lot_digest(&faults, kFaultedLotDigest);
  // The faulted lot must exercise the retest and routing paths, or its
  // digest pins nothing about them.
  const auto d = sigtest::serial_reference(cell().runtime, cell().lot,
                                           stats::Rng(kLotSeed), &faults);
  std::size_t retested = 0;
  for (const auto& x : d) retested += x.attempts > 1 ? 1 : 0;
  EXPECT_GT(retested, 0u);
}

// The same lots requested from an in-process server on loopback: request
// seed kLotSeed, the scenario that names Cell's devices, first sequence 0.
// Each lot is served twice through one client, the second time over the
// connection the first left open.
void expect_wire_digest(const std::string& fault_spec, std::uint64_t want) {
  const Cell& c = cell();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    service::ServerConfig config;
    config.poll_interval_ms = 5;
    service::SigtestServer server(c.shared, config);
    server.start();
    net::ClientOptions options;
    options.sleep_ms = [](int) {};
    options.response_timeout_ms = 30000;
    const net::SigtestClient client(server.port(), options);
    net::LotRequest request;
    request.seed = kLotSeed;
    request.lot_size = static_cast<std::uint32_t>(c.lot.size());
    request.batch = 5;
    request.scenario = kScenario;
    request.fault_spec = fault_spec;
    for (const std::uint64_t id : {std::uint64_t{1}, std::uint64_t{2}}) {
      request.request_id = id;
      const net::ClientLotResult served = client.run_lot(request);
      ASSERT_EQ(served.status, net::ClientStatus::kOk) << served.message;
      EXPECT_EQ(digest(served.dispositions), want)
          << "threads " << threads << ", request " << id;
    }
    server.stop();
  }
}

/// Runs `check` with SIMD on and off, at STF_THREADS 1 and 4.
template <typename Check>
void in_every_configuration(const Check& check) {
  SimdGuard simd_guard;
  for (const bool simd_on : {true, false}) {
    core::simd::set_enabled(simd_on);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadCountGuard guard(threads);
      check("threads " + std::to_string(threads) + ", simd " +
            std::to_string(simd_on));
    }
  }
}

// validate() on Cell's 64 devices, in order on one shared stream: every
// spec's truth and predicted bits and its four metrics.
TEST(GoldenValidationDigest, ReportOnOneSharedStream) {
  const Cell& c = cell();
  in_every_configuration([&](const std::string& where) {
    stats::Rng rng(kLotSeed);
    const sigtest::ValidationReport report = c.runtime.validate(c.devices, rng);
    Fnv1a h;
    h.add(static_cast<std::uint64_t>(report.specs.size()));
    for (const sigtest::SpecScatter& s : report.specs) {
      h.add(static_cast<std::uint64_t>(s.truth.size()));
      for (const double v : s.truth) h.add(v);
      for (const double v : s.predicted) h.add(v);
      h.add(s.rms_error);
      h.add(s.std_error);
      h.add(s.max_abs_error);
      h.add(s.r_squared);
    }
    EXPECT_EQ(h.value(), kValidationDigest) << where;
  });
}

// The unguarded baseline on the faulted lot: device i at fault sequence i,
// all devices on one shared stream, every prediction's length and bits.
TEST(GoldenValidationDigest, UnguardedBaselineOnTheFaultedLot) {
  const Cell& c = cell();
  const rf::FaultInjector faults = rf::FaultInjector::parse(kFaultSpec);
  in_every_configuration([&](const std::string& where) {
    stats::Rng rng(kLotSeed);
    Fnv1a h;
    for (std::size_t i = 0; i < c.lot.size(); ++i) {
      const std::vector<double> p =
          c.unguarded.test_device(*c.lot[i], rng, &faults, i).predicted;
      h.add(static_cast<std::uint64_t>(p.size()));
      for (const double v : p) h.add(v);
    }
    EXPECT_EQ(h.value(), kUnguardedFaultedDigest) << where;
  });
}

TEST(GoldenWireDigest, CleanLot) { expect_wire_digest("", kCleanLotDigest); }

TEST(GoldenWireDigest, FaultedLot) {
  expect_wire_digest(kFaultSpec, kFaultedLotDigest);
}

TEST(GoldenSensitivity, SignatureSensitivityBitsForTwoStimuli) {
  const auto config = sigtest::SignatureTestConfig::simulation_study();
  const sigtest::SignatureAcquirer acquirer(config, 16);
  const sigtest::PerturbationSet perturb(sigtest::lna900_factory(),
                                         circuit::Lna900::nominal(), 0.05);
  const auto a = dsp::PwlWaveform::uniform(
      config.capture_s, {0.0, 0.3, -0.3, 0.15, -0.15, 0.25, -0.25, 0.0});
  const auto b = dsp::PwlWaveform::uniform(
      config.capture_s, {0.1, -0.4, 0.35, 0.0, 0.2, -0.1, 0.3, -0.3, 0.05});
  in_every_configuration([&](const std::string& where) {
    for (const auto& [stimulus, want] : {std::pair{&a, kSensitivityDigestA},
                                         std::pair{&b, kSensitivityDigestB}}) {
      const la::Matrix a_s = perturb.signature_sensitivity(acquirer, *stimulus);
      Fnv1a h;
      h.add(static_cast<std::uint64_t>(a_s.rows()));
      h.add(static_cast<std::uint64_t>(a_s.cols()));
      for (std::size_t i = 0; i < a_s.size(); ++i) h.add(a_s.data()[i]);
      EXPECT_EQ(h.value(), want) << where;
    }
  });
}

// The benchmark's stimulus search cell (perfbench/golden_ga.txt): the
// LNA900 perturbation set at 5 %, the simulation-study acquirer at the
// registry's signature width, and the default 30 x 25 GA at one seed.
struct SearchCell {
  sigtest::SignatureTestConfig config =
      sigtest::SignatureTestConfig::simulation_study();
  sigtest::PerturbationSet perturbations{sigtest::lna900_factory(),
                                         circuit::Lna900::nominal(), 0.05};
  sigtest::SignatureAcquirer acquirer{
      config, service::RegistryOptions::lna_defaults().max_signature_bins};

  sigtest::OptimizedStimulus search(std::uint64_t ga_seed) const {
    sigtest::StimulusOptimizerConfig oc;
    oc.encoding.duration_s = config.capture_s;
    oc.ga.seed = ga_seed;
    return sigtest::optimize_stimulus(perturbations, acquirer, oc);
  }
};

struct GoldenSearch {
  std::uint64_t seed;
  std::size_t evaluations;
  std::uint64_t objective_bits;
};

// Seeds 1-3 of perfbench/golden_ga.txt.
constexpr GoldenSearch kGoldenSearches[] = {
    {1, 730, 0x40cd3bbf9ede016dULL},
    {2, 730, 0x40bc329088159ae7ULL},
    {3, 730, 0x41013bfa2e15d79eULL},
};

void expect_golden(const sigtest::OptimizedStimulus& r, const GoldenSearch& g,
                   const std::string& where) {
  EXPECT_EQ(r.evaluations, g.evaluations) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.objective), g.objective_bits)
      << where;
}

TEST(GoldenGa, SearchesMatchTheBenchmarkGoldens) {
  const SearchCell cell;
  for (const GoldenSearch& g : kGoldenSearches)
    expect_golden(cell.search(g.seed), g,
                  "seed " + std::to_string(g.seed));
  in_every_configuration([&](const std::string& where) {
    expect_golden(cell.search(kGoldenSearches[0].seed), kGoldenSearches[0],
                  "seed 1, " + where);
  });
}

// The work one golden search does, counted exactly. A change that splits a
// lane group, adds a transform or evaluates another candidate moves a
// count here even when every result bit stays put. w is the kernels' lane
// width; at w = 1 the captures, signatures and pinvs take the per-device
// and per-matrix paths, so the three lane counters read 0.
TEST(WorkBudget, GoldenGaSearch) {
  if (!core::telemetry::compiled()) GTEST_SKIP() << "telemetry compiled out";
  const std::size_t w = la::pinv_lane_width();
  ASSERT_EQ(rf::LoadBoard::lane_width(), w);
  ASSERT_EQ(dsp::fft_lane_width(), w);
  // Lane groups of x items at width w; a group of one is no lane group.
  const auto groups = [w](std::uint64_t x) -> std::uint64_t {
    return w == 1 ? 0 : (x + w - 1) / w;
  };
  // 30 initial candidates and 25 generations of 28, plus the final
  // breakdown's sensitivity: 731 A_s of 20 captures each.
  constexpr std::uint64_t kSensitivities = 731;
  const SearchCell cell;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadCountGuard guard(threads);
    core::telemetry::set_enabled(true);
    core::telemetry::reset();
    const auto r = cell.search(kGoldenSearches[0].seed);
    const auto count = [](const char* name) {
      return core::telemetry::counter_value(name);
    };
    const std::string where = "threads " + std::to_string(threads) +
                              ", lane width " + std::to_string(w);
    EXPECT_EQ(r.evaluations, 730u) << where;
    EXPECT_EQ(count("ga.objective_evals"), 730u) << where;
    EXPECT_EQ(count("fft.transforms"), kSensitivities * 20) << where;
    EXPECT_EQ(count("board.lane_groups"), kSensitivities * groups(20))
        << where;
    EXPECT_EQ(count("acq.signature_lane_groups"), kSensitivities * groups(20))
        << where;
    EXPECT_EQ(count("linalg.pinv_lane_groups"), groups(30) + 25 * groups(28))
        << where;
    core::telemetry::set_enabled(false);
    core::telemetry::reset();
  }
}

}  // namespace
